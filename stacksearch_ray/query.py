"""BM25 top-k query engine over the sharded segment index.

Two scorers, verified rank-identical in tests:

- ``exhaustive``: term-at-a-time over all postings of the query terms
  (decoded fully, NumPy-vectorized) — the distributed analog of the
  reference's ``brute_force_search`` (/root/reference/index/hash_index.py:
  81-90) and the conformance ground truth.
- ``bmax``: vectorized block-max pruning (SURVEY.md §2.6 T1/T2) — the
  sorted doc space cut into fixed intervals of ``block_size`` docs
  (Dimopoulos et al., WSDM'13), scored best-first in growing batches
  via each term's cached interval offsets (multi-range gather into the
  same dense accumulator exhaustive uses, no per-block or per-doc
  Python), sound early exit — candidate pruning with exact re-scoring,
  the analog of the reference's LSH-candidates → exact Jaccard re-rank
  (reference index/index_new.py:65-72). Bounds that cannot cut are pure
  overhead, so when more than half of the query's postings sit under
  bounds ≥ θ₀ — the k-th best exact score of each term's few
  highest-part live postings, its "champions", a floor under the k-th
  best live score — bmax hands the query to ``exhaustive`` before it
  scores any interval (before it builds the bounds at all when the
  terms' least interval maxima already sum to θ₀ or more), and
  otherwise starts pruning from θ₀ (timings:
  scripts/scorer_shootout.py on the 200k-doc zipf corpus,
  BENCH/dense_terms_r20.json). Tombstoned docs never enter θ, so
  bmax serves appended, deleted and merged indexes like clean ones.

Both read a term through one cache (``_decoded``): its postings over
every segment row that holds it — each shard's, each appended file's —
decoded once per engine and merged into dense doc order. A term posted
in at least ``DENSE_SHARE`` of the docs also keeps its contributions as
one dense vector, which plain BM25 adds contiguously instead of
scattering (``_add_wpart``).

Any other ``method`` name raises ``ValueError``.

Scoring: float64, idf = ln((N-df+0.5)/(df+0.5)+1) from GLOBAL stats only,
contributions accumulated in sorted-term order so scores are bitwise
identical to the oracle (oracle.py). Tie-break: score desc, doc_id asc.
Every scorer ends in one top-k tail (``_topk_select``): a sampled
threshold under the k-th best score picks the few docs worth sorting.

Query fan-out: the index is doc-sharded, so each shard's top-k is
independent. ``ShardedQueryEngine`` serves it from long-lived
``ray.remote(QueryEngine)`` actors, each owning a shard subset. One
table (``_FANOUT``) generates 27 of its surfaces from the same-named
engine methods, with their signatures and docstrings: one ``_fanout``
call, merged by ``_topk`` (score desc, doc_id asc) for 19 ranked
lists, by ``_concat_by_doc`` for 7 per-doc arrays, or by a sorted
concatenation for the boolean DSL. Five surfaces that only compose
others are the engine's own definitions. Hand-written are the request
cache, batching, warm-up, the owner-routed ``explain`` and pinned ids
(``_owner``), and the custom merges of collapse and sort-by-field.
``FederatedQueryEngine`` merges independently built indexes through
the same ``_topk``, and ``BM25SearchActor`` is the actor-pool stage
(index loaded once per actor) for batch-query throughput via
``map_batches``.
"""

from __future__ import annotations

import functools
import inspect
import os
import re
from collections import OrderedDict
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .build import check_format, load_stats
from .build import idf as idf_fn
from .codec import (
    bm25_tf_part,
    decode_doc_ids,
    decode_positions,
    decode_tfs,
    gather_ranges,
)
from .micros import to_micros
from .schema import (
    SEG_MAP_NAME,
    map_buckets_of,
    read_doc_map,
    read_seg_map_entry,
    write_seg_bucket_map,
)
from .text import clean_query


class _DocLens:
    """doc_id → doc_len lookup (the Lucene-norms analog). A shard-subset
    worker loads only its shards' rows (predicate pushdown) — at 10⁹ docs
    the full norms table doesn't fit one worker, 1/S of it does."""

    def __init__(self, docs_dir: str, shard_subset: list[int] | None = None):
        filters = None
        if shard_subset is not None:
            filters = [("shard", "in", list(shard_subset))]
        t = pq.read_table(docs_dir, columns=["doc_id", "doc_len"],
                          filters=filters)
        ids = np.asarray(t["doc_id"]).astype(np.int64)
        lens = np.asarray(t["doc_len"]).astype(np.int64)
        order = np.argsort(ids, kind="stable")
        self.ids = ids[order]
        self.lens = lens[order]

    def lookup(self, doc_ids: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(self.ids, doc_ids)
        return self.lens[pos]

    def lookup_one(self, doc_id: int) -> float:
        return float(self.lens[self.ids.searchsorted(doc_id)])


class _Postings(NamedTuple):
    """One term's postings over every segment row that holds it (each
    shard's, each appended file's), merged into dense doc order: entry
    i is doc ``ids[i]``, at position ``didx[i]`` (strictly increasing)
    of the engine's sorted doc ids, with ``part[i]`` its idf-free BM25
    part and ``wpart[i]`` = idf · ``part[i]`` its BM25 contribution
    (idf is fixed per open engine). ``iv``/``ivmax``/``off`` summarize
    the postings over fixed intervals of ``block_size`` dense positions,
    for bmax: the intervals the term touches (ascending), its max
    ``part`` in each, and where each one's postings start
    (``off[j]:off[j + 1]``). ``champ`` holds the dense positions of the
    term's ``CHAMPIONS`` highest-part live postings (``_champions``).
    ``dense`` is ``wpart`` scattered over zeros across every dense
    position when the term is posted in at least ``DENSE_SHARE`` of the
    engine's docs (``QueryEngine._dense_term``), else None. ``ivfloor``
    is the least of ``ivmax`` when the term touches every interval,
    else 0.0: no interval's max part for the term is below it."""
    ids: np.ndarray
    tfs: np.ndarray
    dls: np.ndarray
    part: np.ndarray
    wpart: np.ndarray
    didx: np.ndarray
    iv: np.ndarray
    ivmax: np.ndarray
    off: np.ndarray
    champ: np.ndarray
    dense: np.ndarray | None
    ivfloor: float


# postings per term whose exact scores set bmax's first threshold
CHAMPIONS = 16
# share of the engine's docs a term must be posted in to keep a dense
# contribution vector (memory bound: see QueryEngine._decoded)
DENSE_SHARE = 0.25


def _add_wpart(acc: np.ndarray, p: _Postings) -> None:
    """``acc += `` the term's plain BM25 contributions: one contiguous
    add of its dense vector when it has one, else one scatter. Every
    contribution is > 0 (the dense vector exists only then), so a doc
    the term misses gains +0.0 and keeps its value bitwise, and each
    doc still sums its terms in the caller's order."""
    if p.dense is not None:
        acc += p.dense
    else:
        acc[p.didx] += p.wpart


def _champions(wpart: np.ndarray, didx: np.ndarray, alive: np.ndarray,
               c: int) -> np.ndarray:
    """Dense positions of a term's ``c`` highest-``wpart`` live postings
    (every live one when it has fewer), in no particular order."""
    live = np.flatnonzero(alive[didx])
    if len(live) > c:
        live = live[np.argpartition(wpart[live], len(live) - c)[-c:]]
    return didx[live]


def _topk_select(acc: np.ndarray, k: int, hit: np.ndarray | None = None,
                 live: np.ndarray | None = None) -> np.ndarray:
    """Positions of the top ``k`` candidates of ``acc`` in (score desc,
    position asc) order; a candidate is a matched position (``hit``, or
    ``acc > 0`` when ``hit`` is None) that ``live`` allows (every one
    when ``live`` is None). The k-th largest score of the candidates at
    every 16th position is a real candidate's score, so it is a lower
    bound ``t`` on the k-th largest of all: only positions scoring at
    least ``t`` are gathered and sorted, and every tie with the k-th
    score survives, which keeps the order exact. With fewer than k
    sampled candidates every candidate is sorted. The full candidate
    list is never built."""
    if k < 1:
        return np.empty(0, dtype=np.int64)
    s = acc[::16]
    m = s > 0 if hit is None else hit[::16]
    if live is not None:
        m = m & live[::16]  # m may be a view of hit
    s = s[m]
    if len(s) >= k:
        cand = np.flatnonzero(acc >= np.partition(s, len(s) - k)[len(s) - k])
        if hit is not None:  # t > 0 already implies acc > 0
            cand = cand[hit[cand]]
    else:
        cand = np.flatnonzero(acc > 0 if hit is None else hit)
    if live is not None:
        cand = cand[live[cand]]
    return cand[np.lexsort((cand, -acc[cand]))[:k]]


def _file_version(path: str) -> tuple[int, int, int]:
    """(inode, size, mtime_ns) of a segment file: compaction replaces
    files under their old names, and a doc map (and every local doc
    number) belongs to one version of a file."""
    st = os.stat(path)
    return (st.st_ino, st.st_size, st.st_mtime_ns)


def sorted_member_mask(sorted_arr: np.ndarray, ids: np.ndarray,
                       return_idx: bool = False):
    """Boolean membership of ``ids`` in the SORTED unique ``sorted_arr``
    via one bulk searchsorted — the shared probe behind collapse /
    sort-by-field / matched-set aggregation masks (handles the empty
    array without special-casing at call sites). With ``return_idx``
    also returns the clamped positions, so callers gathering values
    for the hits reuse this searchsorted instead of running another."""
    if len(sorted_arr) == 0:
        mask = np.zeros(len(ids), dtype=bool)
        idx = np.zeros(len(ids), dtype=np.int64)
        return (mask, idx) if return_idx else mask
    j = np.searchsorted(sorted_arr, ids)
    jc = np.minimum(j, len(sorted_arr) - 1)
    mask = (j < len(sorted_arr)) & (sorted_arr[jc] == ids)
    return (mask, jc) if return_idx else mask


def _collapse_walk(ranked: list, per_group: int, k: int) -> list:
    """Shared collapse pass: walk (doc_id, group, score) tuples already
    ordered by (score desc, doc_id asc), keep at most ``per_group`` per
    non-negative group (-1 = singleton sentinel, never collapses),
    early-exit at k. Used by both the single-engine and the sharded
    re-collapse so the semantics can never diverge."""
    out: list = []
    taken: dict[int, int] = {}
    for d, g, s in ranked:
        if g >= 0:
            n = taken.get(g, 0)
            if n >= per_group:
                continue
            taken[g] = n + 1
        out.append((d, g, s))
        if len(out) == k:
            break
    return out


def _topk(parts, k: int | None, key=lambda r: (-r[1], r[0])) -> list:
    """THE fan-out merge: concatenate per-source result lists over
    disjoint docs and keep the first ``k`` in ``key`` order — by
    default the engine's one total order, score desc then doc_id asc.
    ``k=None`` keeps every row (the sharded collapse re-walks them)."""
    merged = [r for part in parts for r in part]
    merged.sort(key=key)
    return merged[:k]


def _concat_by_doc(parts) -> tuple[np.ndarray, ...]:
    """Merge per-worker column tuples ``(doc_ids, col, ...)`` over
    disjoint doc sets: concatenate each column, then one stable sort
    by doc id reproduces the single-engine arrays."""
    cols = [np.concatenate(c) for c in zip(*parts)]
    order = np.argsort(cols[0], kind="stable")
    return tuple(c[order] for c in cols)


class _RequestCache(OrderedDict):
    """ES-style request cache: full ``search`` results memoized on the
    call's arguments, LRU over ``size`` entries (0 = off). Both engines'
    ``search`` serve through it; the freshness contract is
    ``QueryEngine.__init__``'s."""

    def __init__(self, size: int = 0):  # pickle rebuilds it with ()
        super().__init__()
        self.size = int(size)

    def lookup(self, compute, *args) -> list:
        """``compute(*args)``, memoized on ``args``; a hit returns a
        copy so callers can never mutate a cached list."""
        if not self.size:
            return compute(*args)
        hit = self.get(args)
        if hit is not None:
            self.move_to_end(args)
            return list(hit)
        res = compute(*args)
        self[args] = list(res)
        if len(self) > self.size:
            self.popitem(last=False)
        return res


def open_index(path: str, **kwargs) -> "QueryEngine":
    """Open an index OR an alias directory (append.set_index_alias):
    resolves one alias.json hop, then constructs a QueryEngine. The
    reader's view pins at open time — flipping the alias afterwards
    affects only subsequent opens (zero-downtime reindex)."""
    from .append import resolve_index_alias

    return QueryEngine(resolve_index_alias(path), **kwargs)


class QueryEngine:
    """Loads stats + doc lens once; segment rows fetched per query with
    parquet predicate pushdown on ``term`` (and cached).

    ``shard_subset``: restrict to a subset of index shards (the
    sharded-query fan-out, SURVEY.md E2). With a subset, per-term global
    df comes from the term_dict (a subset's local df would skew idf);
    scores stay bitwise identical to the full engine."""

    def __init__(self, index_dir: str, shard_subset: list[int] | None = None,
                 request_cache: int = 0):
        from .append import recover_appends, recover_purges, recover_segments

        recover_segments(index_dir)  # heal interrupted compaction swaps
        recover_appends(index_dir)   # heal interrupted append commits
        recover_purges(index_dir)    # roll interrupted purges forward
        self.index_dir = index_dir
        self.stats = check_format(load_stats(index_dir), index_dir)
        self.n_docs = self.stats["n_docs"]
        self.avgdl = float(self.stats["avgdl"])
        self.k1 = float(self.stats["k1"])
        self.b = float(self.stats["b"])
        # total kept tokens over ALIVE docs (build writes it; delete
        # subtracts the removed doc_lens) — collection-stats scorers
        # (lm_dirichlet) read it as p(t|C)'s denominator
        self.total_len = int(self.stats["total_len"])
        self.block_size = int(self.stats["block_size"])
        self.doclens = _DocLens(os.path.join(index_dir, "docs"), shard_subset)
        # tombstoned docs (delete_from_index) stay physically present
        # until compaction; a dense alive-mask over the local doc space
        # (all True on a clean index) hides them from every query path.
        from .append import load_tombstones

        deleted = load_tombstones(index_dir, self.stats)
        self._deleted_sorted = deleted
        self._alive = np.ones(len(self.doclens.ids), dtype=bool)
        if len(deleted):
            pos = np.searchsorted(self.doclens.ids, deleted)
            ok = pos < len(self.doclens.ids)
            pos = pos[ok]
            self._alive[pos[self.doclens.ids[pos] == deleted[ok]]] = False
        self._ddf_file = self.stats.get("deleted_df_file")
        self._ddf: dict[str, int] | None = None  # see _deleted_df
        self._seg_dir = os.path.join(index_dir, "segments")
        self._term_dict_dir = os.path.join(index_dir, "term_dict")
        self.shard_subset = sorted(shard_subset) if shard_subset is not None else None
        self._seg_cache: dict[str, list[dict]] = {}
        self._seg_map: dict[str, set] | None = None  # file → map-buckets
        self._seg_map_loaded = False
        self._pos_cache: dict[str, tuple] = {}
        self._df_cache: dict[str, int] = {}
        self._dec_cache: dict[str, _Postings] = {}  # see _decoded
        self._map_cache: dict[tuple[str, tuple],
                              tuple[np.ndarray, np.ndarray]] = {}
        # ES-style request cache: memoize full search() results, LRU
        # over ``request_cache`` entries (0 = off). Correct BY
        # CONSTRUCTION: an open engine's view is frozen (mutations
        # write new files + an atomic stats swap; this reader keeps
        # serving its open snapshot — the serving_mutation drill pins
        # that), so a cached result can never go stale within one
        # engine lifetime. Fresh results appear by REOPENING, exactly
        # like ES's per-segment request cache keyed on refresh.
        self._req_cache = _RequestCache(request_cache)
        self.max_cached_segments = 20_000
        # candidate-postings threshold below which vectorized exhaustive
        # scoring beats pruning scorers (method="auto"): NumPy TAAT costs
        # ~0.2µs/posting vs ~2µs/doc for Python WAND pivoting and
        # per-segment overhead for bmax, so pruning must elide >90% of
        # work to win — measured true on skewed real-corpus shapes only;
        # per-shard candidate sets are bounded by sharding at scale, so
        # TAAT is the robust default far longer than classic IR lore
        # suggests
        self.wand_min_postings = 20_000_000
        # Fast path (measured, scripts/scorer_shootout.py on the 200k-doc
        # zipf corpus, BENCH/topk_tail_r21.json, p50 ms bmax vs
        # exhaustive over 18 interleaved repeats): over fixed doc-id
        # intervals bmax wins BELOW the general threshold on every shape
        # with a hot term (hot1 0.77 vs 1.00, hot2 1.12 vs 1.26, hot+rare
        # 0.40 vs 0.53, hot3+rare 0.67 vs 0.99), and loses on small
        # candidate sets (rare2 0.30 vs 0.22, mid2 1.26 vs 0.39), where
        # its set-up is most of the work. So bmax routes early when the
        # query holds ≥ bmax_min_postings postings AND the corpus's doc
        # lengths disperse (doc-length cv ≥ bmax_min_dl_cv). Shapes
        # whose bounds cannot prune (hot8: 8 hot terms) are sent on to
        # exhaustive by bmax's pre-test, which ends at the interval floor
        # before any bound is built (see _bmax_bounds); the champion
        # probe it still runs costs hot8 about 7% over exhaustive at cv
        # 0.1 (1.44 vs 1.34 ms, auto lower in 1 of 18 interleaved
        # repeats with the gate open), so the cv gate keeps it off
        # flat-length corpora, although interval bmax wins there too on
        # the other hot shapes.
        self.bmax_min_postings = 100_000
        self.bmax_min_dl_cv = 0.8
        self._dl_cv: float | None = None
        # search_filtered plan="auto": route the postings-probe plan when
        # |allowed| * factor <= local doc count (selective cost is
        # |allowed|·log df per query term vs Σ df + an n_local pass for
        # the dense mask). Measured on a 200k-doc corpus (5-term query,
        # 16 shards): selective 7.5×/3.4×/1.2× faster at |allowed| =
        # 10/100/1000, crossover ≈ n/100 — factor 128 routes just inside
        # the winning region.
        self.filtered_selective_factor = 128

    @property
    def _positive_parts(self) -> bool:
        """Every posting's BM25 part is > 0 (see _search_exhaustive)."""
        return self.k1 >= 0.0 and 0.0 <= self.b <= 1.0

    # the scoring path never reads the (optional, heavy) positions
    # column — positional reads go through term_positions only
    _SEG_COLUMNS = ["term", "shard", "df", "cf", "doc_ids", "tfs"]

    # file-level term pruning: segment files group terms by the BUILD's
    # hash buckets, which range statistics can't prune (hashed terms
    # span the alphabet in every file). The sidecar (schema.SEG_MAP_NAME)
    # records, per segment file, the set of term map-buckets present in
    # it; a cold term then touches only files whose set contains its
    # bucket. Writers emit it; stale or missing entries are rebuilt
    # lazily from one term-column scan per file.
    def _load_seg_map(self) -> dict[str, set] | None:
        if self._seg_map_loaded:
            return self._seg_map
        self._seg_map_loaded = True
        import json

        side = os.path.join(self.index_dir, SEG_MAP_NAME)
        try:
            files = sorted(f for f in os.listdir(self._seg_dir)
                           if f.endswith(".parquet"))
        except OSError:
            return None
        cached: dict = {}
        try:
            with open(side) as f:
                cached = json.load(f)
        except (OSError, ValueError):
            pass
        out: dict[str, set] = {}
        entries: dict[str, dict] = {}
        changed = False
        for name in files:
            path = os.path.join(self._seg_dir, name)
            try:
                st = os.stat(path)
            except OSError:
                return None
            ent = cached.get(name)
            if (ent and ent.get("size") == st.st_size
                    and ent.get("mtime_ns") == st.st_mtime_ns):
                entries[name] = ent
                out[name] = set(ent["buckets"])
                continue
            changed = True
            entries[name] = read_seg_map_entry(path, st)
            out[name] = set(entries[name]["buckets"])
        if changed or set(cached) != set(files):
            try:  # best-effort persist (read-only dirs stay in-memory)
                write_seg_bucket_map(self.index_dir, entries)
            except OSError:
                pass
        self._seg_map = out
        return out

    def _seg_paths_for(self, terms: list[str]) -> list[str] | None:
        """Pruned file list that can contain any of ``terms``; None →
        no map available, read the whole directory."""
        m = self._load_seg_map()
        if m is None:
            return None
        want = set(map_buckets_of(terms).tolist())
        return [os.path.join(self._seg_dir, f)
                for f, bks in sorted(m.items())
                if not want.isdisjoint(bks)]

    def _segments_verified_paths(self, missing: list[str]
                                 ) -> list[str] | None:
        """Exact file pruning in two stages: bucket-map candidates, then
        a term-only column scan per candidate (pages of the heavy blob
        columns never touched) keeps ONLY files that truly contain one
        of the terms. The blob read that follows decompresses ~matching
        files instead of the whole directory — measured 4-8× less cold
        I/O for rare terms. Returns None when no map is available.

        When MOST files are candidates the verify can't prune much but
        still pays ~1 ms/file (GIL-held footer parse — 1024-shard 10M
        index: ~1 s per cold query for zero pruning, every term lives
        in every per-shard file once df >> S), so above a count+ratio
        threshold the unverified candidate list goes straight to the
        blob read; its term filters keep correctness, and the SORTED
        superset preserves per-term segment-row order bitwise."""
        paths = self._seg_paths_for(missing)
        if paths is None or paths == []:
            return paths
        m = self._seg_map  # populated by _seg_paths_for
        if len(paths) > 64 and m is not None \
                and len(paths) * 4 > len(m) * 3:
            return paths
        import pyarrow.compute as pc

        vset = pa.array(missing, pa.string())
        out = []
        for p in paths:
            tcol = pq.ParquetFile(p).read(columns=["term"],
                                          use_threads=False)["term"]
            hit = pc.any(pc.is_in(tcol.combine_chunks(), value_set=vset))
            if hit.as_py():
                out.append(p)
        return out

    _AUTO = object()  # sentinel: "compute verified paths here"

    def _segments_for(self, terms: list[str],
                      verified_paths=_AUTO) -> dict[str, list[dict]]:
        missing = [t for t in terms if t not in self._seg_cache]
        if missing:
            filters = [("term", "in", missing)]
            if self.shard_subset is not None:
                filters.append(("shard", "in", self.shard_subset))
            # plan() precomputes the verify scan for its file counts and
            # hands it in — don't pay the per-candidate term read twice
            paths = (self._segments_verified_paths(missing)
                     if verified_paths is QueryEngine._AUTO
                     else verified_paths)
            for m in missing:
                self._seg_cache[m] = []
            if paths != []:
                for r in self._read_rows(paths, filters, self._SEG_COLUMNS):
                    self._seg_cache[r["term"]].append(r)
        return {t: self._seg_cache[t] for t in terms}

    def _df_only(self, terms: list[str]) -> dict[str, int]:
        """Global ALIVE df per term WITHOUT fetching posting blobs: a
        column-pruned (term, df) segments read — for idf-only needs
        (PRF candidate weighting), where _segments_for would read and
        cache every candidate's full posting rows. Shard-subset engines
        already have the blob-free term_dict path in _df_global."""
        if self.shard_subset is not None:
            return self._df_global(terms, {})
        # memoized into the same PHYSICAL-df cache the shard-subset
        # path uses (an open engine is an immutable snapshot — the
        # _seg_cache/_dec_cache contract): repeated idf-only lookups
        # (every FederatedQueryEngine query, PRF rounds) must not
        # re-read segment parquet footers per call
        missing = [m for m in terms if m not in self._df_cache]
        if missing:
            paths = self._seg_paths_for(missing)
            if paths == []:
                t = pa.table({"term": pa.array([], pa.string()),
                              "df": pa.array([], pa.int64())})
            else:
                t = pq.read_table(paths if paths is not None
                                  else self._seg_dir,
                                  filters=[("term", "in", missing)],
                                  columns=["term", "df"])
            phys = {m: 0 for m in missing}
            for term, df in zip(t["term"].to_pylist(),
                                t["df"].to_pylist()):
                phys[term] += int(df)
            self._df_cache.update(phys)
        ddf = self._deleted_df()
        return {m: self._df_cache[m] - ddf.get(m, 0) for m in terms}

    def _physical_df(self, terms: list[str],
                     segs: dict[str, list[dict]]) -> dict[str, int]:
        """Global PHYSICAL df per term (tombstoned docs included),
        memoized in ``_df_cache``. Full engine: sum over the term's
        segment rows (all shards visible). Shard subset: term_dict
        lookup."""
        missing = [t for t in terms if t not in self._df_cache]
        if missing and self.shard_subset is None:
            for m in missing:
                self._df_cache[m] = sum(r["df"] for r in segs[m])
        elif missing:
            t = pq.read_table(self._term_dict_dir, columns=["term", "df"],
                              filters=[("term", "in", missing)])
            found = dict(zip(t["term"].to_pylist(), t["df"].to_pylist()))
            for m in missing:
                self._df_cache[m] = int(found.get(m, 0))
        return {t: self._df_cache[t] for t in terms}

    def _df_global(self, terms: list[str],
                   segs: dict[str, list[dict]]) -> dict[str, int]:
        """Global df per term over ALIVE docs (see _physical_df). With
        pending deletes, the physical dfs are corrected by the
        delete-time per-term sidecar (the correction must be global — a
        worker can't see other shards' postings), so idf equals a
        rebuild without the deleted docs, bitwise."""
        dfs = self._physical_df(terms, segs)
        ddf = self._deleted_df()
        return {t: dfs[t] - ddf.get(t, 0) for t in terms}

    def _cf_global(self, terms: list[str],
                   segs: dict[str, list[dict]]) -> dict[str, int]:
        """Global PHYSICAL collection frequency per term. Full engine:
        sum over the term's segment rows (already fetched). Shard
        subset: term_dict lookup (a subset's local cf would skew
        p(t|C)). Physical = counts tombstoned docs' occurrences until
        purge/compact (purge keeps term_dict cf exact incrementally)."""
        if self.shard_subset is None:
            return {t: sum(r["cf"] for r in segs[t]) for t in terms}
        t = pq.read_table(self._term_dict_dir, columns=["term", "cf"],
                          filters=[("term", "in", terms)])
        found = dict(zip(t["term"].to_pylist(), t["cf"].to_pylist()))
        return {m: int(found.get(m, 0)) for m in terms}

    def _deleted_df(self) -> dict[str, int]:
        """Tombstoned docs per term (a term absent from it has none;
        empty on an index without deletes). The deleted-df sidecar is
        vocabulary-bounded and fixed for an open engine (like
        ``_alive``), so it is read once, on first use."""
        if self._ddf is None:
            self._ddf = {}
            if self._ddf_file:
                t = pq.read_table(os.path.join(self.index_dir,
                                               self._ddf_file))
                self._ddf = dict(zip(t["term"].to_pylist(),
                                     t["ddf"].to_pylist()))
        return self._ddf

    def _read_rows(self, paths: list[str] | None, filters: list,
                   columns: list[str]) -> list[dict]:
        """Segment rows of ``paths`` (None: every file) matching
        ``filters``, each with ``doc_map``: its file's (doc map, dense
        index), see _doc_map. Its postings are local doc numbers in that
        map. Compaction rewrites files under their old names with new
        numbers, so a file whose version (_file_version) changes across
        the read raises instead of pairing its rows with another
        version's map."""
        if paths is None:
            listed = [os.path.join(self._seg_dir, f)
                      for f in os.listdir(self._seg_dir)
                      if f.endswith(".parquet")]
        else:
            listed = paths
        before = {p: _file_version(p) for p in listed}
        t = pq.read_table(paths if paths is not None else self._seg_dir,
                          filters=filters, columns=columns + ["__filename"])
        names = t["__filename"].to_pylist()
        maps = {}
        for path in set(names):
            version = _file_version(path)
            if before.get(path, version) != version:
                raise RuntimeError(
                    f"segment file {path!r} changed while it was read "
                    "(compacted under an open engine); reopen the engine")
            maps[path] = self._doc_map(path, version)
        rows = t.drop_columns(["__filename"]).to_pylist()
        for r, path in zip(rows, names):
            r["doc_map"] = maps[path]
        return rows

    def _doc_map(self, path: str, version: tuple
                 ) -> tuple[np.ndarray, np.ndarray]:
        """(doc map, dense index) of one version of a segment file,
        loaded once per engine: a local doc number n decoded from the
        file is doc id ``doc_map[n]``, at position ``dense[n]`` of the
        engine's sorted doc ids (``self.doclens.ids``, the accumulators'
        index)."""
        key = (path, version)
        hit = self._map_cache.get(key)
        if hit is None:
            doc_map = read_doc_map(path)
            if _file_version(path) != version:
                raise RuntimeError(
                    f"segment file {path!r} changed while its doc map "
                    "was read (compacted under an open engine); reopen "
                    "the engine")
            hit = (doc_map, np.searchsorted(self.doclens.ids, doc_map))
            self._map_cache[key] = hit
        return hit

    # ---------- exhaustive TAAT ----------

    def _decoded(self, term: str, rows: list[dict]) -> _Postings:
        """The term's postings over all of its segment ``rows``, merged
        into dense doc order (``_Postings``) and cached per term: the
        engine's one decode cache, capped at ``max_cached_segments``
        terms. Global df, and so idf, is fixed per open engine, so the
        cache holds the idf-weighted parts too and stays
        query-independent; every kernel adds each term once.

        A term posted in at least ``DENSE_SHARE`` of the engine's docs
        also keeps ``dense``, its ``wpart`` over every dense position:
        8 bytes per local doc, so at most 8 / ``DENSE_SHARE`` = 32
        bytes per posting, beside the 48 per posting of its six sparse
        arrays. Plain scoring adds it contiguously (``_add_wpart``),
        and bmax's champion probe gathers from it.

        A doc posted twice for one term (a segment file copied under a
        second name) raises: a fancy-indexed ``acc[didx] += ...`` would
        drop the repeat silently."""
        hit = self._dec_cache.get(term)
        if hit is not None:
            return hit
        cols = []
        for r in rows:
            local = decode_doc_ids(r["doc_ids"], self.block_size)
            doc_map, dense = r["doc_map"]
            cols.append((doc_map[local], decode_tfs(r["tfs"]), dense[local]))
        ids, tfs, didx = (np.concatenate(c) for c in zip(*cols))
        if len(rows) > 1:
            order = np.argsort(didx, kind="stable")
            ids, tfs, didx = ids[order], tfs[order], didx[order]
        bad = np.flatnonzero(didx[1:] <= didx[:-1])
        if len(bad):
            raise RuntimeError(
                f"term {term!r} posts doc {int(ids[bad[0] + 1])} more than "
                f"once across the segment files of index {self.index_dir!r}"
                " (run fsck_index)")
        dls = self.doclens.lens[didx]
        part = bm25_tf_part(tfs, dls, self.avgdl, self.k1, self.b)
        # the same float op as idf_fn(...) * part at query time
        wpart = idf_fn(self.n_docs,
                       self._df_global([term], {term: rows})[term]) * part
        iv = didx // self.block_size
        first = np.flatnonzero(np.concatenate(([True], iv[1:] != iv[:-1])))
        dense = None
        if self._dense_term(len(didx)):
            dense = np.zeros(len(self.doclens.ids), dtype=np.float64)
            dense[didx] = wpart
        ivmax = np.maximum.reduceat(part, first)
        n_iv = -(-len(self.doclens.ids) // self.block_size)
        hit = _Postings(ids, tfs, dls, part, wpart, didx, iv[first], ivmax,
                        np.append(first, len(didx)),
                        _champions(wpart, didx, self._alive, CHAMPIONS),
                        dense,
                        float(ivmax.min()) if len(first) == n_iv else 0.0)
        if len(self._dec_cache) < self.max_cached_segments:
            self._dec_cache[term] = hit
        return hit

    def _dense_term(self, n_postings: int) -> bool:
        """Whether a term with ``n_postings`` postings in this engine
        keeps a dense contribution vector (``_Postings.dense``): it is
        posted in at least ``DENSE_SHARE`` of the local docs, and every
        BM25 part is > 0, so adding the vector's zeros changes no
        score."""
        return (self._positive_parts
                and n_postings >= DENSE_SHARE * len(self.doclens.ids))

    def search_boosted(self, boosts: dict[str, float], k: int = 10
                       ) -> list[tuple[int, float]]:
        """Per-term query boosts (the Lucene ``term^2.0`` analog):
        score = Σ_t boost_t · idf_t · tf_part. Exhaustive only — bmax's
        block bounds know nothing about boosts, so pruning would be
        unsound. Weight expression order is (idf · boost) · part,
        mirrored exactly by the SQL oracle."""
        bmap = {}
        for raw, bv in boosts.items():
            for t in clean_query(raw):
                bmap[t] = float(bv)
        return self._search_exhaustive(sorted(bmap), k, boosts=bmap)

    def search_synonym_groups(self, groups: list[list[str]], k: int = 10
                              ) -> list[tuple[int, float]]:
        """Synonym-group retrieval (Lucene ``SynonymQuery`` / best-fields
        semantics): each group contributes the MAX of its members' BM25
        term contributions per doc, groups sum:

            score(d) = Σ_g max_{t ∈ g} idf_t · tf_part(t, d)

        max (not sum) keeps a doc mentioning one group member many times
        from out-ranking genuine multi-concept matches when the group's
        variants co-occur. Exhaustive only — bmax's block bounds
        upper-bound per-term sums, not group maxima. Bitwise contract:
        per-term contributions reuse the exhaustive chain (idf · part);
        np.maximum is exact; groups accumulate in sorted order of their
        first member — the SQL mirror takes MAX per (doc, group) then
        sums, micros-identical."""
        norm: list[list[str]] = []
        for g in groups:
            terms = sorted({t for raw in g for t in clean_query(raw)})
            if terms:
                norm.append(terms)
        if not norm:
            return []
        all_terms = sorted({t for g in norm for t in g})
        segs = self._segments_for(all_terms)
        n_local = len(self.doclens.ids)
        acc = np.zeros(n_local, dtype=np.float64)
        hit = np.zeros(n_local, dtype=bool)
        gacc = np.zeros(n_local, dtype=np.float64)
        tacc = np.zeros(n_local, dtype=np.float64)
        any_rows = False
        for g in sorted(norm, key=lambda g: g[0]):
            gacc[:] = 0.0
            ghit = False
            for t in g:  # sorted within group (deterministic, max is
                rows = segs[t]  # order-free anyway)
                if not rows:
                    continue
                p = self._decoded(t, rows)
                tv = p.dense
                if tv is None:
                    tv = tacc
                    tv[:] = 0.0
                    _add_wpart(tv, p)
                hit[p.didx] = True
                ghit = True
                any_rows = True
                np.maximum(gacc, tv, out=gacc)
            if ghit:
                acc += gacc
        if not any_rows:
            return []
        return self._topk_dense(acc, hit, k)

    def search_prf(self, query: str, k: int = 10, fb_docs: int = 5,
                   fb_terms: int = 3, beta: float = 0.4,
                   text_lookup=None
                   ) -> tuple[list[tuple[int, float]], list[str]]:
        """Rocchio-style pseudo-relevance feedback (two-stage retrieval):

        1. exhaustive BM25 top-``fb_docs`` for the raw query;
        2. re-tokenize those docs from the doc store; every non-query
           term is a candidate, weighted by its summed BM25 contribution
           over the feedback docs (Σ_d idf_t · tf_part(t, d) — the same
           float expression as scoring, doc_id-ascending accumulation);
        3. top-``fb_terms`` candidates by (weight-micros desc, term asc)
           — micros comparison, so the SQL mirror picks identically;
        4. final boosted search: original terms at 1.0, expansion terms
           at ``beta``.

        Returns (topk, expansion_terms). ``text_lookup(doc_ids) ->
        {doc_id: text}`` supplies feedback-doc content (the index's doc
        store keeps metadata + sha, not text — J1's fetch goes to the
        source table with doc_id pushdown). Cost model at scale: stage 2
        touches ``fb_docs`` docs (bounded) + one df lookup per candidate
        term; the two searches are the only corpus-wide work."""
        if text_lookup is None:
            raise ValueError(
                "search_prf needs text_lookup(doc_ids) -> {doc_id: text} "
                "— the docs sidecar stores metadata, not content")
        qterms = sorted(set(clean_query(query)))
        if not qterms:
            return [], []
        base = self._search_exhaustive(qterms, fb_docs)
        if not base:
            return [], []
        ranked = self.prf_expansion_terms(query, fb_docs, fb_terms,
                                          text_lookup, _base=base)
        chosen = [t for t, _ in ranked]
        boosts = {t: 1.0 for t in qterms}
        boosts.update({t: float(beta) for t in chosen})
        return (self._search_exhaustive(sorted(boosts), k, boosts=boosts),
                chosen)

    def prf_expansion_terms(self, query: str, fb_docs: int = 5,
                            fb_terms: int = 3, text_lookup=None,
                            _base=None) -> list[tuple[str, int]]:
        """Stage 2 of search_prf on its own: the top-``fb_terms``
        expansion candidates as (term, weight_micros), ordered by
        (weight desc, term asc). Weight = Σ over feedback docs of
        idf · tf_part — the scorer's own expression, micros-rounded
        BEFORE ranking so selection is deterministic across engines."""
        if text_lookup is None:
            raise ValueError(
                "prf_expansion_terms needs text_lookup(doc_ids) -> "
                "{doc_id: text}")
        qterms = sorted(set(clean_query(query)))
        base = (self._search_exhaustive(qterms, fb_docs)
                if _base is None else _base)
        if not base:
            return []
        texts = text_lookup([d for d, _ in base])
        per_doc: list[tuple[int, dict[str, int]]] = []
        for did in sorted(int(d) for d, _ in base):
            cnt: dict[str, int] = {}
            for t in clean_query(texts[did]):
                cnt[t] = cnt.get(t, 0) + 1
            per_doc.append((did, cnt))
        cands = sorted({t for _, c in per_doc for t in c} - set(qterms))
        if not cands:
            return []
        cdfs = self._df_only(cands)
        weights: dict[str, int] = {}
        for t in cands:
            w = idf_fn(self.n_docs, cdfs[t])
            s = 0.0
            for did, cnt in per_doc:  # doc_id-ascending order
                tf = cnt.get(t)
                if tf:
                    dl = np.array([self.doclens.lookup_one(did)])
                    s += w * float(bm25_tf_part(
                        np.array([tf], dtype=np.float64), dl,
                        self.avgdl, self.k1, self.b)[0])
            weights[t] = to_micros(s)
        chosen = sorted(weights, key=lambda t: (-weights[t], t))[:fb_terms]
        return [(t, weights[t]) for t in chosen]

    def _resolve_scorer(self, scorer: str, terms: list[str],
                        segs: dict[str, list[dict]]):
        """None for bm25 (the inlined fast path); otherwise a closure
        ``fn(tfs, dls, df_global, term) -> float64 ndarray`` over the
        registered scorer. A scorer whose signature declares ``cf`` (or
        ``**kwargs``) is a collection-stats scorer (registry.py): its
        per-term global cf and the corpus total_len are bound here, once
        per query."""
        if scorer == "bm25":
            return None
        import inspect

        from .registry import get_scorer

        custom = get_scorer(scorer)
        params = inspect.signature(custom).parameters
        # a scorer declaring k1/b is in the BM25 family: bind the
        # INDEX's stored parameters (stats.json), not the signature
        # defaults — search(scorer="bm25_plus") must normalize tf
        # exactly like the index's own bm25 on custom-k1/b indexes
        kw: dict = {}
        if "k1" in params:
            kw["k1"] = self.k1
        if "b" in params:
            kw["b"] = self.b
        if "cf" in params or any(p.kind == p.VAR_KEYWORD
                                 for p in params.values()):
            cfs = self._cf_global(terms, segs)
            return lambda tfs, dls, dfg, t: custom(
                tfs, dls, dfg, self.n_docs, self.avgdl,
                cf=cfs[t], total_len=self.total_len, **kw)
        return lambda tfs, dls, dfg, t: custom(
            tfs, dls, dfg, self.n_docs, self.avgdl, **kw)

    def search_feature_boost(self, query: str, k: int = 10, *,
                             feature_ids, feature_vals,
                             weight: float = 1.0, scorer: str = "bm25"
                             ) -> list[tuple[int, float]]:
        """Function-score ranking (the Lucene ``FunctionScoreQuery`` /
        ES ``function_score`` additive analog): combined(d) =
        text_score(d) + weight·feature(d) over docs matching ≥1 query
        term — a static doc-value signal (popularity, recency, length
        prior) folded into ranking at query time.

        ``feature_ids`` / ``feature_vals``: parallel arrays mapping
        doc_id → feature value; docs without a row default to 0.0.
        Exhaustive-only (bmax's block bounds upper-bound the text
        score, not the combined score). Float expression order is
        ``acc + weight·feat`` per doc, mirrored by the DuckDB oracle
        (pipelines/sql.py feature_boost_topk_sql) micros-bitwise."""
        terms = sorted(set(clean_query(query)))
        if not terms:
            return []
        ids = np.asarray(feature_ids, dtype=np.int64)
        vals = np.asarray(feature_vals, dtype=np.float64)
        n_local = len(self.doclens.ids)
        feat = np.zeros(n_local, dtype=np.float64)
        pos = np.searchsorted(self.doclens.ids, ids)
        ok = pos < n_local
        pos = pos[ok]
        hitsel = self.doclens.ids[pos] == ids[ok]
        feat[pos[hitsel]] = vals[ok][hitsel]
        return self._search_exhaustive(terms, k, scorer,
                                       feature=feat, feature_weight=weight)

    def search_feature_scale(self, query: str, k: int = 10, *,
                             feature_ids, feature_vals,
                             scorer: str = "bm25"
                             ) -> list[tuple[int, float]]:
        """MULTIPLICATIVE function-score ranking (ES ``function_score``
        with ``boost_mode: multiply`` — the decay-function shape):
        combined(d) = text_score(d) · feature(d) over matched docs.
        The canonical use is a decay prior (recency, distance from an
        origin value): pass feature = the decay factor in [0, 1].
        Docs without a feature row keep factor 1.0 (unscaled), matching
        ES's missing-value behavior. Exhaustive-only, like the additive
        sibling (block bounds cap the text score, not the product)."""
        terms = sorted(set(clean_query(query)))
        if not terms:
            return []
        ids = np.asarray(feature_ids, dtype=np.int64)
        vals = np.asarray(feature_vals, dtype=np.float64)
        n_local = len(self.doclens.ids)
        feat = np.ones(n_local, dtype=np.float64)
        pos = np.searchsorted(self.doclens.ids, ids)
        ok = pos < n_local
        pos = pos[ok]
        hitsel = self.doclens.ids[pos] == ids[ok]
        feat[pos[hitsel]] = vals[ok][hitsel]
        return self._search_exhaustive(terms, k, scorer,
                                       feature=feat, feature_op="mul")

    def search_boosting(self, positive: str, negative: str,
                        negative_boost: float = 0.3, k: int = 10,
                        scorer: str = "bm25") -> list[tuple[int, float]]:
        """The ES ``boosting`` query: rank by the positive query, but
        DEMOTE (never exclude — the difference from must_not) docs
        matching the negative expression, multiplying their scores by
        ``negative_boost``. ``negative`` is a boolean-DSL expression
        (terms / AND / OR / NOT / prefix*); the demotion rides the
        proven multiplicative feature path (search_feature_scale), so
        undemoted docs keep their text scores bitwise and demoted docs
        are text · negative_boost in one fixed multiply."""
        neg = self.search_boolean_dsl(negative)
        return self.search_feature_scale(
            positive, k, feature_ids=neg,
            feature_vals=np.full(len(neg), float(negative_boost)),
            scorer=scorer)

    def _alive_ids(self) -> np.ndarray:
        return self.doclens.ids[self._alive]

    def _match_tree(self, tree: tuple,
                    boosts: dict[str, float] | None = None) -> np.ndarray:
        """Sorted alive doc ids matching a ``_parse_query_string`` tree
        (a bare NOT complements the alive universe). With ``boosts``,
        each term and phrase term in positive context adds its boost
        there, in source order."""
        def leaf(node: tuple, positive: bool) -> np.ndarray:
            kind = node[0]
            if kind == "prefix":
                return self._union_terms(self.prefix_terms(node[1]))[0]
            if positive and boosts is not None:
                for t in (node[1],) if kind == "term" else node[1]:
                    boosts[t] = boosts.get(t, 0.0) + node[-1]
            if kind == "term":
                return self.term_doc_ids(node[1])
            ids, spans = self.min_ordered_spans(list(node[1]))
            return ids[spans <= len(node[1]) + node[2]]

        return _fold_query(tree, leaf, {
            "and": lambda a, b: np.intersect1d(a, b, assume_unique=True),
            "or": np.union1d,
            "and_not": lambda a, b: np.setdiff1d(a, b, assume_unique=True),
            "not": lambda a: np.setdiff1d(self._alive_ids(), a,
                                          assume_unique=True)})

    def search_boolean_dsl(self, expr: str) -> np.ndarray:
        """Boolean retrieval over a query LANGUAGE (the Lucene
        BooleanQuery / classic IR set-algebra surface): ``AND`` /
        ``OR`` / ``NOT`` / parentheses, e.g.
        ``(merge AND sort) OR (join AND NOT window)``. Returns the
        sorted matching doc ids.

        The expression is the ONE query_string grammar
        (``_parse_query_string``) and the result is its matched set:
        OR loosest, then AND, NOT tightest; bare terms, trailing-``*``
        prefixes and quoted phrases (``"..."~slop`` gates on the
        positional sidecar); ``^boost`` parses but cannot change a set.
        Every atom runs through the analyzer (a term that normalizes
        away, e.g. a stopword, is a parse error — silent empty sets
        hide typos). Evaluation is sorted-set algebra over the postings
        (alive docs only); ``x AND NOT y`` is one setdiff, and a bare
        ``NOT x`` complements against the alive universe."""
        return self._match_tree(_parse_query_string(expr))

    def search_query_string(self, qs: str, k: int = 10
                            ) -> list[tuple[int, float]]:
        """The Lucene/ES ``query_string`` surface: one string carrying
        boolean structure AND ranking hints —

            ("merge sort"~2 AND stream^2.0) OR (join AND NOT wind*)

        Atoms: bare terms (optionally ``^boost``), quoted phrases
        (optionally ``~slop`` — ordered minimal span ≤ n+slop from the
        positional sidecar), and trailing-``*`` prefixes (optionally
        ``^boost``). Operators: AND / OR / NOT with parentheses (OR
        loosest, NOT tightest — the boolean-DSL grammar).

        Semantics (documented, mirrored exactly by the SQL oracle):
        the expression decides the MATCHED SET (set algebra over
        postings / span gates / prefix unions, alive docs only);
        ranking is the boosted BM25 sum over every term or phrase-term
        appearing in POSITIVE context (repeated terms sum their
        boosts); prefix atoms FILTER but never score (the Lucene
        multi-term-query constant-score rewrite — scoring an unbounded
        expansion is unsound at scale); matched docs containing no
        scoring term rank after all scored docs at 0.0, doc_id
        ascending. Scored survivors keep their unfiltered boosted
        scores bitwise."""
        bmap: dict[str, float] = {}
        matched = self._match_tree(_parse_query_string(qs), bmap)
        if len(matched) == 0:
            return []
        res: list[tuple[int, float]] = []
        if bmap:
            res = self._search_exhaustive(sorted(bmap), k,
                                          allowed=matched, boosts=bmap)
        if len(res) < k:
            # matched docs with no scoring-term hit: score 0.0, after
            # every scored doc (bm25 contributions are strictly > 0),
            # doc_id ascending
            have = {d for d, _ in res}
            for d in matched:
                if len(res) >= k:
                    break
                if int(d) not in have:
                    res.append((int(d), 0.0))
        return res

    def search_match_bool_prefix(self, text: str, k: int = 10
                                 ) -> list[tuple[int, float]]:
        """ES ``match_bool_prefix``: every analyzed term is a SHOULD
        term clause except the LAST, which matches as a prefix — the
        search-as-you-type disjunction ("merge sort st" hits docs with
        merge OR sort OR any st… term). Expressed on the query_string
        machinery: full terms score BM25, the prefix atom filters but
        never scores (Lucene's constant-score multi-term rewrite),
        zero-scored matches rank last."""
        terms = clean_query(text, max_tokens=None)
        if not terms:
            return []
        atoms = terms[:-1] + [terms[-1] + "*"]
        return self.search_query_string(" OR ".join(atoms), k)

    def search_simple_query_string(self, qs: str, k: int = 10,
                                   default_operator: str = "or"
                                   ) -> list[tuple[int, float]]:
        """The ES ``simple_query_string`` surface: the end-user-safe
        grammar — ``+`` AND, ``|`` OR, leading ``-`` NOT, quoted
        phrases (``"..."~slop``), trailing-``*`` prefixes, parentheses,
        and an implicit ``default_operator`` between adjacent clauses
        (ES defaults to OR). Implemented as a grammar translation onto
        search_query_string, so matching, span gates, scoring and the
        zero-scored tail are EXACTLY the query_string semantics (prefix
        atoms filter but never score — the MTQ constant-score rewrite).
        Dangling trailing operators (``"foo -"``, ``"foo |"``,
        ``"foo +"``) are IGNORED — Lucene SimpleQueryParser leniency —
        while structural errors (unbalanced parens, empty atoms) raise
        like the other DSL surfaces."""
        dsl = simple_query_string_to_dsl(qs, default_operator)
        if dsl is None:
            return []  # only-MUST_NOT query matches nothing (Lucene)
        return self.search_query_string(dsl, k)

    def search_bool_query(self, must, should=(), must_not=(),
                          k: int = 10, scorer: str = "bm25"
                          ) -> list[tuple[int, float]]:
        """The ES ``bool`` query shape with scoring: docs containing
        EVERY ``must`` term and NO ``must_not`` term, ranked by the
        text scorer over must + should terms (``should`` terms widen
        scoring, not matching — the classic must-filters/should-boosts
        split). Allowed set = the boolean DSL match of
        ``m1 AND m2 AND NOT n1 …`` (each must_not one setdiff), then
        the proven filtered scorer (survivor scores bitwise equal their
        unfiltered scores over the scoring terms)."""
        def norm(words) -> list[str]:
            out = []
            for w in words:
                ts = clean_query(w)
                if len(ts) != 1:
                    raise ValueError(
                        f"bool-query word {w!r} does not normalize "
                        "to one term")
                out.append(ts[0])
            return out

        must = norm(must)
        if not must:
            raise ValueError("bool query needs at least one must term")
        should = norm(should)
        allowed = self.search_boolean_dsl(" AND ".join(
            must + [f"NOT {t}" for t in norm(must_not)]))
        if len(allowed) == 0:
            return []
        return self.search_filtered(" ".join(must + should), k,
                                    allowed_doc_ids=allowed,
                                    scorer=scorer)

    def search_sorted_by(self, expr: str, k: int = 10, *,
                         field_ids, field_vals, descending: bool = True
                         ) -> list[tuple[int, float]]:
        """Boolean match ordered by a DOC-VALUE field instead of
        relevance (the ES ``sort`` clause): evaluate the boolean DSL
        expression, gather each matching doc's field value
        (``field_ids`` sorted / ``field_vals`` parallel — a doc-values
        sidecar at scale), return the top-k by (value, then doc_id asc;
        value desc by default). Matching docs absent from the field
        arrays are dropped (no NULL-sort ambiguity — mirror the oracle
        with an inner join)."""
        ids = self.search_boolean_dsl(expr)
        if len(ids) == 0:
            return []
        fi = np.asarray(field_ids, dtype=np.int64)
        fv = np.asarray(field_vals)
        hit, idx = sorted_member_mask(fi, ids, return_idx=True)
        ids, vals = ids[hit], fv[idx[hit]]
        order = np.lexsort((ids, -vals if descending else vals))[:k]
        return [(int(ids[i]), vals[i].item()) for i in order]

    def search_pinned(self, query: str, pinned_ids, k: int = 10,
                      method: str = "auto", scorer: str = "bm25"
                      ) -> list[tuple[int, float, bool]]:
        """Elasticsearch ``pinned`` (promoted-results) query: the given
        ids rank first IN THE GIVEN ORDER — promoted whether or not
        they match, exactly ES's semantics — then organic results fill
        the remaining slots, pinned ids excluded, until ``k`` total.
        Returns (doc_id, score, pinned) triples; a pinned doc carries
        its real matched score (via explain(), bitwise the search
        score) or 0.0 when it matches no query term, so the caller can
        display organic relevance alongside the promotion. Pinned ids
        that are unknown or tombstoned are skipped (they could never
        surface organically); duplicates keep the first position."""
        seen: set[int] = set()
        pinned: list[tuple[int, float, bool]] = []
        lid = self.doclens.ids
        for d in pinned_ids:
            di = int(d)
            if di in seen:
                continue
            seen.add(di)
            p = int(np.searchsorted(lid, di))
            if p < len(lid) and lid[p] == di and self._alive[p]:
                pinned.append(
                    (di, self.explain(query, di, scorer=scorer)["score"],
                     True))
            if len(pinned) >= k:
                break
        out = pinned[:k]
        if len(out) < k:
            # over-fetch by |pinned| so excluded promoted docs can't
            # starve the organic fill; skipped entirely when pinned
            # rows already fill k (the organic pass would be discarded)
            for d, s in self.search(query, k=k + len(seen),
                                    method=method, scorer=scorer):
                if len(out) >= k:
                    break
                if d in seen:
                    continue
                out.append((d, s, False))
        return out

    def search_after(self, query: str, after_score: float, after_doc: int,
                     k: int = 10, method: str = "exhaustive",
                     scorer: str = "bm25") -> list[tuple[int, float]]:
        """Cursor pagination (the Elasticsearch ``search_after``
        clause): the k results strictly AFTER the cursor in the
        engine's (score desc, doc_id asc) total order. Unlike offset
        paging, a cursor never re-ranks skipped rows and is stable
        under appends of lower-ranked docs. The cursor compares on the
        raw float score — sound here because score identity is bitwise
        across the whole engine (rule 1); a system serializing cursors
        to clients would compare on the published micros representation
        instead. Scores every matched doc then filters (exhaustive
        semantics, like ES's sorted scan); in the sharded engine each
        worker applies the cursor locally so deep pages never ship
        more than k rows per worker."""
        res = self.search(query, len(self.doclens.ids), method=method,
                          scorer=scorer)
        out = []
        for d, s in res:  # already (score desc, doc asc) — keep order
            if s < after_score or (s == after_score and d > after_doc):
                out.append((d, s))
                if len(out) == k:
                    break
        return out

    def search_phrase_ranked(self, phrase: str, k: int = 10,
                             slop: int = 0, scorer: str = "bm25"
                             ) -> list[tuple[int, float]]:
        """The composite serving primitive behind quoted-phrase search
        boxes: docs whose ordered minimal span satisfies ``slop``
        (span - n_terms ≤ slop, via the positional sidecar), RANKED by
        the text scorer over the phrase's terms. Two proven stages —
        min_ordered_spans produces the allowed set, search_filtered
        scores it (survivor scores bitwise equal their unfiltered
        scores). slop=0 = exact-phrase-in-order ranking. Requires
        store_positions=True."""
        terms = clean_query(phrase, max_tokens=None)
        if not terms:
            return []
        ids, spans = self.min_ordered_spans(terms)
        allowed = ids[spans <= len(terms) + slop]
        if len(allowed) == 0:
            return []
        return self.search_filtered(phrase, k, allowed_doc_ids=allowed,
                                    scorer=scorer)

    def search_collapse(self, query: str, k: int = 10, *,
                        group_ids, group_codes, per_group: int = 1,
                        scorer: str = "bm25") -> list[tuple[int, int, float]]:
        """Field-collapsed top-k (the Elasticsearch ``collapse`` /
        Lucene grouping analog): rank all matching docs, keep at most
        ``per_group`` best per group (score desc, doc_id asc within a
        group), return the global top-k of the survivors as
        (doc_id, group_code, score). Result diversification — e.g. at
        most one hit per source/domain.

        ``group_ids`` (sorted doc ids) / ``group_codes`` (int64): the
        per-doc collapse key, a doc-values column at scale. Docs
        without a row collapse into their own singleton group (never
        suppressed). Exhaustive ranking + one early-exit pass down the
        ranked list; on the sharded path each worker would return its
        local per-group best (groups need not be shard-local — the
        driver re-collapses the union, which is exact because a
        group's global best is some worker's local best)."""
        terms = sorted(set(clean_query(query)))
        if not terms:
            return []
        gi = np.asarray(group_ids, dtype=np.int64)
        gc = np.asarray(group_codes, dtype=np.int64)
        if len(gc) and gc.min() < 0:
            raise ValueError("group_codes must be non-negative "
                             "(-1 is the internal singleton sentinel)")
        ranked = self._search_exhaustive(terms, len(self.doclens.ids),
                                         scorer)
        if not ranked:
            return []
        # one bulk searchsorted maps every ranked doc to its group code
        # (-1 = no row: singleton, never collapses); the walk down the
        # ranked order is then plain-int bookkeeping with early exit
        rd_ = np.fromiter((d for d, _ in ranked), np.int64, len(ranked))
        hit, idx = sorted_member_mask(gi, rd_, return_idx=True)
        groups = np.where(hit, gc[idx] if len(gi) else -1, -1)
        return _collapse_walk(
            [(d, g, s) for (d, s), g in zip(ranked, groups.tolist())],
            per_group, k)

    def search_proximity_boost(self, query: str, k: int = 10,
                               weight: float = 1.0, scorer: str = "bm25"
                               ) -> list[tuple[int, float]]:
        """Proximity-boosted ranking (relevance + term closeness — the
        classic "phrase boost" of web search): combined(d) =
        text_score(d) + weight · 1/(1 + min_cover_window(d)), where the
        window term applies only to docs containing ALL query terms
        (others keep their text score exactly: acc + weight·0.0 is
        bitwise exact). Rides the proven feature-boost accumulation
        (acc + weight·feat), with the positional sidecar providing the
        feature — so the DuckDB mirror is the bm25 chain + the
        min-window CTE ladder, LEFT JOIN + coalesce-0.0. Requires
        store_positions=True."""
        terms = sorted(set(clean_query(query)))
        if not terms:
            return []
        ids, w = self.min_cover_windows(terms)
        feat = 1.0 / (1.0 + w.astype(np.float64))
        return self.search_feature_boost(query, k, feature_ids=ids,
                                         feature_vals=feat, weight=weight,
                                         scorer=scorer)

    def search_rescore(self, query: str, k: int = 10, *,
                       window_size: int = 30, query_weight: float = 1.0,
                       rescore_weight: float = 1.0, scorer: str = "bm25"
                       ) -> list[tuple[int, float]]:
        """Two-phase ranking (the Elasticsearch ``rescore`` analog):
        retrieve the top ``window_size`` docs with the cheap text
        scorer, then re-rank ONLY that window by

            combined = query_weight · text + rescore_weight · prox

        where prox = 1/(1 + min_cover_window) for window docs that
        contain every query term, else exactly 0.0. Unlike
        search_proximity_boost (which folds proximity into the full
        ranking), rescore bounds the expensive secondary signal to a
        fixed window — the production pattern when the second phase is
        costly (positional scans, a model). Docs outside the window are
        never promoted, matching ES semantics. The window cut and the
        final order both tie-break (score desc, doc_id asc), so the
        DuckDB mirror (scores chain → row_number window → LEFT JOIN
        min-window ladder) is bitwise. Requires store_positions=True
        for the proximity feature."""
        ranked = self.search(query, window_size, method="exhaustive",
                             scorer=scorer)
        if not ranked:
            return []
        terms = sorted(set(clean_query(query)))
        win_ids = np.fromiter((d for d, _ in ranked), np.int64, len(ranked))
        ids, w = self.min_cover_windows(terms, within=win_ids)
        prox = {int(d): 1.0 / (1.0 + float(x))
                for d, x in zip(ids.tolist(), w.tolist())}
        combined = [(d, query_weight * s + rescore_weight * prox.get(d, 0.0))
                    for d, s in ranked]  # window-sized, not corpus-sized
        return _topk([combined], k)

    def _search_exhaustive(self, terms: list[str], k: int,
                           scorer: str = "bm25",
                           allowed: np.ndarray | None = None,
                           boosts: dict[str, float] | None = None,
                           feature: np.ndarray | None = None,
                           feature_weight: float = 1.0,
                           feature_op: str = "add"
                           ) -> list[tuple[int, float]]:
        segs = self._segments_for(terms)
        # a CALLABLE scorer bypasses the registry — the federation
        # hook: FederatedQueryEngine injects union collection stats as
        # a closure fn(tfs, dls, df_global, term) -> float64 ndarray
        custom = (scorer if callable(scorer)
                  else self._resolve_scorer(scorer, terms, segs))
        if not any(segs[t] for t in terms):
            return []
        # plain BM25 adds each term's cached idf·part and the top-k tail
        # reads the matched docs off the scores: idf > 0 and part > 0 for
        # tf ≥ 1, so a doc matches iff its score is > 0. A boost
        # (idf·boost)·part is not bitwise wpart·boost, and a boost or a
        # custom scorer may score a match 0 or less, so those keep a hit
        # mask.
        plain = (custom is None and boosts is None and feature is None
                 and self._positive_parts)
        dfs = None if plain else self._df_global(terms, segs)
        # dense accumulator over the engine's sorted local doc-id space:
        # each term scatters once through its merged dense index (a doc
        # appears once per term, so plain fancy += is exact), and each
        # doc accumulates in sorted-term order
        n_local = len(self.doclens.ids)
        acc = np.zeros(n_local, dtype=np.float64)
        hit = None if plain else np.zeros(n_local, dtype=bool)
        for t in terms:  # sorted order → deterministic accumulation
            rows = segs[t]
            if not rows:
                continue
            p = self._decoded(t, rows)
            if plain:
                _add_wpart(acc, p)
                continue
            w = idf_fn(self.n_docs, dfs[t])
            if boosts is not None:
                w = w * boosts[t]
            if custom is None:
                acc[p.didx] += w * p.part
            else:
                acc[p.didx] += custom(p.tfs, p.dls, dfs[t], t)
            hit[p.didx] = True
        if feature is not None:
            # doc-value combine over matched docs only — per-doc
            # expression is acc + weight·feat ("add", the boost shape)
            # or acc · feat ("mul", the decay shape), each in exactly
            # the order its SQL oracle spells
            m = np.flatnonzero(hit)
            if feature_op == "mul":
                acc[m] = acc[m] * feature[m]
            else:
                acc[m] = acc[m] + feature_weight * feature[m]
        return self._topk_dense(acc, hit, k, allowed)

    def _topk_dense(self, acc: np.ndarray, hit: np.ndarray | None, k: int,
                    allowed: np.ndarray | None = None
                    ) -> list[tuple[int, float]]:
        """(score desc, doc_id asc) top-k from a dense accumulator over
        the sorted local doc space — the shared tail of every dense
        scorer (exhaustive, bmax, boosted, synonym-group, ...): masking
        and ordering only, scores untouched. ``hit`` marks the matched
        docs; None means the docs scoring > 0 (plain BM25, whose every
        contribution is > 0). Tombstoned docs never surface, and
        neither the match mask nor the candidate list is built in full
        (_topk_select)."""
        live = self._alive
        if allowed is not None:
            # dense allowed-set mask over the local doc space (sorted
            # membership probe — scores are untouched, so filtered
            # results are bitwise equal to the unfiltered scores of the
            # surviving docs, exactly SQL's WHERE-then-ORDER BY)
            n_local = len(self.doclens.ids)
            amask = np.zeros(n_local, dtype=bool)
            pos = np.searchsorted(self.doclens.ids, allowed)
            ok = pos < n_local
            pos = pos[ok]
            amask[pos[self.doclens.ids[pos] == allowed[ok]]] = True
            live = live & amask
        sel = _topk_select(acc, k, hit, live)
        return list(zip(self.doclens.ids[sel].tolist(), acc[sel].tolist()))

    # ---------- vectorized block-max scoring (best-first intervals) ----------

    def _search_bmax(self, terms: list[str], k: int) -> list[tuple[int, float]]:
        """Vectorized block-max pruning over fixed doc-id intervals
        (Dimopoulos, Nepomnyachiy & Suel, WSDM'13), batched best-first —
        no per-doc Python anywhere:

        1. The engine's sorted local doc space is cut into intervals of
           ``block_size`` dense positions. An interval's upper bound is
           Σ_t idf_t · max_t(interval) over the terms that touch it,
           summed in sorted-term order from each term's cached interval
           maxima (``_Postings.ivmax``). Floating-point addition and
           idf·x are monotone, so every doc's score (the same sum over
           the terms it holds) is ≤ its interval's bound EXACTLY, ties
           included.
        2. Intervals are consumed best-first in geometrically growing
           BATCHES with θ (the k-th best live score so far) re-read
           between batches; once the next interval's bound is < θ
           nothing remaining can contribute — sound early exit. A
           batch gathers each term's postings in its intervals through
           the term's cached offsets (one searchsorted per term) and
           scatters them into one dense accumulator, the way
           ``_search_exhaustive`` does; a doc lies in one interval, so
           it is scored once, all its terms in sorted-term order.
        3. Before any batch, θ₀ = the k-th best exact score of the query
           terms' champions (each term's ``CHAMPIONS`` highest-part live
           postings, or its top k when k is larger) is a floor under θ:
           k live docs score at least θ₀. Bounds that cannot cut are
           pure overhead, so if more than half of the query's postings
           sit in intervals whose bound is ≥ θ₀, the query goes to
           ``_search_exhaustive`` before any interval is scored;
           otherwise the batches start from θ₀ (see _bmax_bounds).
           When the interval floor (Σ_t idf_t · the term's least
           interval max, 0 for a term that misses an interval) is
           already ≥ θ₀, every bound is, and the query goes on without
           the bounds ever being built.

        Tombstoned docs never enter θ. Contributions accumulate in
        sorted-term order → bitwise identical to exhaustive/oracle
        (tested)."""
        if k < 1:
            return []
        bounds = self._bmax_bounds(terms, k)
        if bounds is None:
            return []
        posts, ub, n_post, theta0, n_hot, _ = bounds
        if ub is None or 2 * n_hot > int(n_post.sum()):
            return self._search_exhaustive(terms, k)
        order = np.flatnonzero((n_post > 0) & (ub >= theta0))
        order = order[np.argsort(-ub[order], kind="stable")]
        n_local = len(self.doclens.ids)
        acc = np.zeros(n_local, dtype=np.float64)
        hit = np.zeros(n_local, dtype=bool)
        top = np.empty(0, dtype=np.float64)  # the k best live scores so far
        i, batch_n = 0, 16
        while i < len(order):
            theta = max(theta0, top.min()) if len(top) >= k else theta0
            if ub[order[i]] < theta:
                break  # best-first: nothing further can beat theta
            batch = order[i:i + batch_n]
            batch = np.sort(batch[ub[batch] >= theta])
            i += batch_n
            batch_n *= 4  # establish theta cheaply, then go wide
            new = []
            for p in posts:
                j = np.minimum(np.searchsorted(p.iv, batch), len(p.iv) - 1)
                j = j[p.iv[j] == batch]
                idx = gather_ranges(p.off[j], p.off[j + 1])
                if len(idx) == 0:
                    continue
                d = p.didx[idx]
                acc[d] += p.wpart[idx]
                fresh = d[~hit[d]]
                hit[fresh] = True
                new.append(fresh)
            # θ holds live scores only: a tombstoned doc's score must
            # not prune a live one
            fresh = np.concatenate(new)
            cand = np.concatenate((top, acc[fresh[self._alive[fresh]]]))
            top = (np.partition(cand, len(cand) - k)[-k:]
                   if len(cand) > k else cand)
        return self._topk_dense(acc, hit, k)

    def _bmax_bounds(self, terms: list[str], k: int):
        """bmax's set-up and pre-test (``_search_bmax`` steps 1 and 3):
        (the query terms' postings in sorted-term order, each interval's
        bound ``ub``, its posting count ``n_post``, the champion floor
        θ₀, the postings in intervals with ``ub`` ≥ θ₀, the interval
        floor), or None when no term has postings. θ₀ is -inf when the
        champions hold fewer than k docs. A champion's score adds its
        terms' ``wpart`` from 0.0 in sorted-term order, as every scorer
        does, so θ₀ is a real live score, bitwise. The interval floor
        Σ_t w_t·ivfloor_t, summed in the same order, is ≤ every
        interval's bound (float multiply and add are monotone, and a
        term missing an interval has ivfloor 0.0); when it is ≥ θ₀,
        every posting sits under a bound ≥ θ₀, so ``ub`` and ``n_post``
        are None, never built, and the count is every posting."""
        segs = self._segments_for(terms)
        dfs = self._df_global(terms, segs)
        ws = [(idf_fn(self.n_docs, dfs[t]), self._decoded(t, segs[t]))
              for t in terms if segs[t]]
        if not ws:
            return None
        posts = [p for _, p in ws]
        champ = np.unique(np.concatenate([
            p.champ if k <= CHAMPIONS
            else _champions(p.wpart, p.didx, self._alive, k)
            for p in posts]))
        sc = np.zeros(len(champ), dtype=np.float64)
        for p in posts:
            if p.dense is not None:
                sc += p.dense[champ]  # +0.0 where the term is absent
                continue
            j = np.minimum(np.searchsorted(p.didx, champ), len(p.didx) - 1)
            m = p.didx[j] == champ
            sc[m] += p.wpart[j[m]]
        theta0 = (float(np.partition(sc, len(sc) - k)[len(sc) - k])
                  if len(sc) >= k else -np.inf)
        floor = 0.0
        for w, p in ws:  # sorted-term order, as every bound's own sum
            floor += w * p.ivfloor
        if floor >= theta0:
            return (posts, None, None, theta0,
                    sum(len(p.didx) for p in posts), floor)
        n_iv = -(-len(self.doclens.ids) // self.block_size)
        ub = np.zeros(n_iv, dtype=np.float64)
        n_post = np.zeros(n_iv, dtype=np.int64)
        for w, p in ws:  # sorted-term order, as every doc's own sum
            ub[p.iv] += w * p.ivmax
            n_post[p.iv] += p.off[1:] - p.off[:-1]
        return (posts, ub, n_post, theta0, int(n_post[ub >= theta0].sum()),
                floor)

    def _doclen_cv(self) -> float:
        """Coefficient of variation of doc lengths (computed once per
        engine from the in-memory doclens array): the routing signal
        for whether block-max pruning can pay on this corpus."""
        if self._dl_cv is None:
            lens = np.asarray(self.doclens.lens, dtype=np.float64)
            m = lens.mean() if len(lens) else 0.0
            self._dl_cv = float(lens.std() / m) if m > 0 else 0.0
        return self._dl_cv

    def term_doc_ids(self, term: str) -> np.ndarray:
        """All doc ids containing the term (sorted, deduped): the union
        of the term's segment postings. The candidate-generation
        primitive for two-stage queries (phrase / proximity): intersect
        per-term id sets, then verify only the candidates."""
        rows = self._segments_for([term])[term]
        if not rows:
            return np.empty(0, np.int64)
        p = self._decoded(term, rows)
        return p.ids[self._alive[p.didx]]

    def term_postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """(doc_ids, tfs) for one term in doc_id order: its merged
        decode (``_decoded``), alive-masked under tombstones. The
        raw-frequency primitive for scorers composed OUTSIDE the engine
        (e.g. BM25F, which mixes per-field tfs before saturation and so
        can't reuse the cached idf-free parts)."""
        rows = self._segments_for([term])[term]
        if not rows:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        p = self._decoded(term, rows)
        alive = self._alive[p.didx]
        return p.ids[alive], p.tfs[alive]

    def term_positions(self, term: str
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(doc_ids, tfs, flat_positions) for one term, merged across
        its segment rows in GLOBAL doc_id order — doc i's 1-based token
        positions occupy flat_positions[Σtfs[:i] : Σtfs[:i+1]], sorted
        ascending. The positional-query primitive: phrase adjacency and
        NEAR/k run from the index alone, no text re-read. Requires an
        index built with store_positions=True. It reads the positions
        column, which the scoring read (``_segments_for``) skips, so it
        merges its own rows once per term (``_pos_cache``)."""
        if not self.stats.get("store_positions"):
            raise ValueError(
                "index was built without store_positions=True — "
                "positional queries need the positions sidecar")
        hit = self._pos_cache.get(term)
        if hit is not None:
            return hit
        filters = [("term", "=", term)]
        if self.shard_subset is not None:
            filters.append(("shard", "in", self.shard_subset))
        paths = self._seg_paths_for([term])
        rows = ([] if paths == [] else
                self._read_rows(paths, filters,
                                ["doc_ids", "tfs", "positions"]))
        empty = (np.empty(0, np.int64), np.empty(0, np.int64),
                 np.empty(0, np.int64))
        if not rows:
            return empty
        ids_l, tfs_l, pos_l = [], [], []
        for r in rows:
            ids = r["doc_map"][0][decode_doc_ids(r["doc_ids"],
                                                 self.block_size)]
            tfs = decode_tfs(r["tfs"]).astype(np.int64)
            ids_l.append(ids)
            tfs_l.append(tfs)
            pos_l.append(decode_positions(r["positions"], tfs))
        ids = np.concatenate(ids_l)
        tfs = np.concatenate(tfs_l)
        pos = np.concatenate(pos_l)
        # shards partition docs, so sorting ids permutes whole doc runs;
        # gather the variable-length position runs into that order
        order = np.argsort(ids, kind="stable")
        ends = np.cumsum(tfs)
        out = (ids[order], tfs[order],
               pos[gather_ranges(ends[order] - tfs[order], ends[order])])
        if len(self._pos_cache) < self.max_cached_segments:
            self._pos_cache[term] = out
        return out

    def _positions_over(self, terms: list[str], common: np.ndarray
                        ) -> list[np.ndarray]:
        """Per term: packed (local_doc_idx << 32 | position) arrays over
        the COMMON doc set (local idx < 2³¹, positions < 2³² — doc
        lengths bound them), each sorted ascending and unique."""
        packed = []
        m = np.int64(1) << np.int64(32)
        for t in terms:
            ids, tfs, pos = self.term_positions(t)
            idx = np.searchsorted(ids, common)
            ends = np.cumsum(tfs)
            starts = ends - tfs
            ss, ll = starts[idx], tfs[idx]
            base = np.cumsum(ll) - ll
            g = (np.repeat(ss, ll) + np.arange(int(ll.sum()))
                 - np.repeat(base, ll))
            local = np.repeat(np.arange(len(common), dtype=np.int64), ll)
            packed.append(local * m + pos[g].astype(np.int64))
        return packed

    def _common_docs(self, terms: list[str]) -> np.ndarray:
        common: np.ndarray | None = None
        for t in terms:
            ids = self.term_positions(t)[0]
            common = ids if common is None else np.intersect1d(
                common, ids, assume_unique=True)
            if len(common) == 0:
                break
        if common is None:
            return np.empty(0, np.int64)
        return common[self._alive[np.searchsorted(self.doclens.ids, common)]]

    def phrase_occurrences(self, phrase: str
                           ) -> tuple[np.ndarray, np.ndarray]:
        """Exact-phrase match from the positional sidecar ALONE — no
        text re-read: per-term position sets over the common docs,
        sequential adjacency intersection (positions of term i, +1,
        ∩ positions of term i+1). Returns (doc_ids, n_occurrences),
        identical to the streaming kept-token n-gram scan."""
        from .text import clean_query

        terms = clean_query(phrase, max_tokens=None)
        empty = (np.empty(0, np.int64), np.empty(0, np.int64))
        if not terms:
            return empty
        common = self._common_docs(sorted(set(terms)))
        if len(common) == 0:
            return empty
        packed = self._positions_over(terms, common)
        cur = packed[0]
        for nxt in packed[1:]:
            cur = np.intersect1d(cur + 1, nxt, assume_unique=True)
        if len(cur) == 0:
            return empty
        counts = np.bincount((cur >> np.int64(32)).astype(np.int64),
                             minlength=len(common))
        nz = counts > 0
        return common[nz], counts[nz]

    def near_min_gaps(self, term_a: str, term_b: str
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Per doc containing BOTH terms, the minimum |Δposition| —
        NEAR/k from the positional sidecar alone. Same adjacent-
        opposite-label kernel as the streaming scan: merge both terms'
        (doc, pos) streams in order, min over adjacent pairs with
        different labels."""
        empty = (np.empty(0, np.int64), np.empty(0, np.int64))
        common = self._common_docs([term_a, term_b])
        if len(common) == 0:
            return empty
        pa_, pb_ = self._positions_over([term_a, term_b], common)
        keys = np.concatenate((pa_, pb_))
        lab = np.concatenate((np.zeros(len(pa_), bool),
                              np.ones(len(pb_), bool)))
        order = np.argsort(keys, kind="stable")
        keys, lab = keys[order], lab[order]
        m = np.int64(1) << np.int64(32)
        d = keys >> np.int64(32)
        p = keys & (m - 1)
        ok = (d[1:] == d[:-1]) & (lab[1:] != lab[:-1])
        gaps = (p[1:] - p[:-1])[ok]
        docs = d[1:][ok]
        if len(docs) == 0:
            return empty
        uniq = np.unique(docs)
        mg = np.full(len(uniq), np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(mg, np.searchsorted(uniq, docs), gaps)
        return common[uniq], mg

    def prefix_terms(self, prefix: str) -> list[str]:
        """All indexed terms with the given prefix — a sorted-range
        read of the term_dict ([prefix, prefix+1) filters prune row
        groups), the serving primitive behind wildcard queries."""
        if not prefix:
            raise ValueError("prefix must be non-empty")
        hi = prefix[:-1] + chr(ord(prefix[-1]) + 1)
        t = pq.read_table(self._term_dict_dir, columns=["term"],
                          filters=[("term", ">=", prefix),
                                   ("term", "<", hi)])
        return sorted(t["term"].to_pylist())

    def regex_terms(self, pattern: str) -> list[str]:
        """Indexed terms FULLY matching the regex (Lucene RegexpQuery
        analog). The pattern's leading literal run prunes the term_dict
        read to its sorted range (the FST-prefix optimization); a
        pattern with no literal prefix scans the vocab-sized term
        column once — at 10⁹ docs the vocabulary is still millions of
        rows, not corpus-sized, so the scan is a driver-local read."""
        import re

        rx = re.compile(pattern)
        meta = set(".^$*+?{}[]\\|()")
        lit = []
        for ch in pattern:
            if ch in meta:
                break
            lit.append(ch)
        filters = None
        if lit:
            p = "".join(lit)
            hi = p[:-1] + chr(ord(p[-1]) + 1)
            filters = [("term", ">=", p), ("term", "<", hi)]
        t = pq.read_table(self._term_dict_dir, columns=["term"],
                          filters=filters)
        return sorted(s for s in t["term"].to_pylist() if rx.fullmatch(s))

    def search_regex(self, pattern: str
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Regex retrieval: (doc_ids, n_terms, n_tokens) for every doc
        containing ANY indexed term that fully matches ``pattern`` —
        same postings-union machinery as search_wildcard."""
        return self._union_terms(self.regex_terms(pattern))

    def search_wildcard(self, prefix: str
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Wildcard (prefix*) retrieval: (doc_ids, n_terms, n_tokens)
        for every doc containing ANY indexed term with the prefix —
        n_terms = distinct matching terms in the doc, n_tokens = their
        summed occurrences. Postings union across the matched terms'
        merged postings; (term, doc) pairs are unique (``_decoded``
        raises on a repeat), so one bincount per doc counts terms
        exactly."""
        return self._union_terms(self.prefix_terms(prefix))

    def _union_terms(self, terms: list[str]
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        empty = (np.empty(0, np.int64),) * 3
        if not terms:
            return empty
        segs = self._segments_for(terms)
        ids_l, tf_l = [], []
        for t in terms:
            if segs[t]:
                p = self._decoded(t, segs[t])
                ids_l.append(p.ids)
                tf_l.append(p.tfs)
        if not ids_l:
            return empty
        ids = np.concatenate(ids_l)
        tfs = np.concatenate(tf_l).astype(np.int64)
        uniq, inv = np.unique(ids, return_inverse=True)
        n_terms = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        n_tokens = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(n_tokens, inv, tfs)  # int64 scatter-add, never float
        keep = self._alive[np.searchsorted(self.doclens.ids, uniq)]
        return uniq[keep], n_terms[keep], n_tokens[keep]

    def min_cover_windows(self, terms: list[str],
                          within: np.ndarray | None = None
                          ) -> tuple[np.ndarray, np.ndarray]:
        """Minimal-interval proximity from the positional sidecar: per
        doc containing ALL ``terms``, the length of the shortest token
        window covering every term at least once (the classic proximity
        ranking signal). Fully vectorized: the optimal window starts at
        some term occurrence, so every packed (local_doc << 32 | pos)
        occurrence is a candidate start; one searchsorted per term
        finds each term's first occurrence ≥ the start, the window end
        is their max, and windows whose end escapes the start's doc are
        killed by the packed high bits. Requires store_positions=True."""
        terms = sorted(set(terms))
        empty = (np.empty(0, np.int64), np.empty(0, np.int64))
        if not terms:
            return empty
        common = self._common_docs(terms)
        if within is not None:
            # restrict the positional scan to the caller's doc set (the
            # rescore window): the gather below touches only these docs
            common = np.intersect1d(common, np.asarray(within, np.int64),
                                    assume_unique=False)
        if len(common) == 0:
            return empty
        packed = self._positions_over(terms, common)
        starts = np.unique(np.concatenate(packed))
        ends = np.zeros(len(starts), dtype=np.int64)
        valid = np.ones(len(starts), dtype=bool)
        big = np.iinfo(np.int64).max
        for pk in packed:
            j = np.searchsorted(pk, starts)
            ok = j < len(pk)
            nxt = np.where(ok, pk[np.minimum(j, len(pk) - 1)], big)
            ends = np.maximum(ends, nxt)
            valid &= ok
        sh = np.int64(32)
        mask = (np.int64(1) << sh) - 1
        valid &= (ends >> sh) == (starts >> sh)   # window stays in-doc
        w = (ends & mask) - (starts & mask) + 1
        didx = (starts >> sh).astype(np.int64)
        out = np.full(len(common), big, dtype=np.int64)
        np.minimum.at(out, didx[valid], w[valid])
        # every common doc has ≥1 valid window (it contains all terms)
        assert (out < big).all()
        return common, out

    def min_ordered_spans(self, terms: list[str]
                          ) -> tuple[np.ndarray, np.ndarray]:
        """ORDERED minimal-span proximity (the Lucene sloppy-PhraseQuery
        primitive): per doc, the length of the shortest token window
        containing occurrences of ``terms`` IN ORDER at strictly
        increasing positions. A phrase with slop s matches iff
        span - len(terms) ≤ s. Unlike min_cover_windows the terms list
        is ORDER-SIGNIFICANT and may repeat ("merge sort merge" needs
        two distinct merge occurrences).

        Greedy chain, fully vectorized: for every occurrence of
        terms[0] as a candidate start, each later term takes its FIRST
        position strictly after the running end (one searchsorted per
        term) — earliest-next is optimal for a fixed start, so the min
        over starts is the true minimal ordered span. Chains whose end
        escapes the start's doc are killed by the packed high bits
        (positions are doc-major monotone, so an in-doc end implies
        in-doc intermediates). Requires store_positions=True."""
        empty = (np.empty(0, np.int64), np.empty(0, np.int64))
        if not terms:
            return empty
        common = self._common_docs(sorted(set(terms)))
        if len(common) == 0:
            return empty
        packed = self._positions_over(terms, common)
        starts = packed[0]
        big = np.iinfo(np.int64).max
        cur, valid = _chain_earliest(
            packed[1:], starts, np.ones(len(starts), dtype=bool))
        sh = np.int64(32)
        mask = (np.int64(1) << sh) - 1
        valid &= (cur >> sh) == (starts >> sh)
        w = (cur & mask) - (starts & mask) + 1
        didx = (starts >> sh).astype(np.int64)
        out = np.full(len(common), big, dtype=np.int64)
        np.minimum.at(out, didx[valid], w[valid])
        # a doc can contain all distinct terms yet no in-order chain —
        # drop those (unlike min_cover_windows, matching is not implied)
        hit = out < big
        return common[hit], out[hit]

    def get_docs(self, doc_ids: list[int]) -> list[dict]:
        """Doc-store lookup (J1 analog — the reference's fetch_post_by_id,
        /root/reference/results.py:149-158, without the full scan):
        parquet predicate pushdown on doc_id over the docs table."""
        t = pq.read_table(os.path.join(self.index_dir, "docs"),
                          filters=[("doc_id", "in", list(doc_ids))])
        rows = t.to_pylist()
        dead = sorted_member_mask(self._deleted_sorted, np.asarray(
            [r["doc_id"] for r in rows], dtype=np.int64))
        by_id = {r["doc_id"]: r for r, x in zip(rows, dead) if not x}
        return [by_id[d] for d in doc_ids if d in by_id]

    def search_with_docs(self, query: str, k: int = 10, method: str = "auto",
                         scorer: str = "bm25") -> list[dict]:
        """Top-k with doc metadata attached (the reference's display path:
        search → titlesCache lookup, index_new.py:69)."""
        res = self.search(query, k, method, scorer)
        metas = {m["doc_id"]: m for m in self.get_docs([d for d, _ in res])}
        out = []
        for rank, (doc_id, score) in enumerate(res, 1):
            row = dict(metas.get(doc_id, {"doc_id": doc_id}))
            row.update({"rank": rank, "score": score})
            out.append(row)
        return out

    def search(self, query: str, k: int = 10, method: str = "auto",
               scorer: str = "bm25") -> list[tuple[int, float]]:
        """Top-k (doc_id, score), score desc then doc_id asc. Query-side
        tokenization = reference cleanQuery; duplicate terms count once.

        method="auto" picks vectorized exhaustive scoring when the
        candidate posting count is small and vectorized block-max
        (``bmax``) otherwise (_route_auto) — bmax's doc-id-interval
        bounds prune to several times faster than TAAT on queries
        holding a hot term, and bmax hands a query to TAAT before
        scoring anything when the exact scores of the terms' champion
        docs show its bounds cannot prune (scripts/scorer_shootout.py).
        Either scorer reads each query term as one merged posting list
        over all of its shards and appended files. All methods are
        rank-identical (tested).

        ``scorer``: a registry.py scorer name (§2.10 pluggable-ranking
        hook); non-bm25 scorers use the exhaustive path (bmax's interval
        bounds only upper-bound BM25).

        With ``request_cache`` enabled at construction, results are
        LRU-memoized on (query, k, method, scorer) — see __init__ for
        the freshness contract."""
        return self._req_cache.lookup(self._search_uncached,
                                      query, k, method, scorer)

    def _search_uncached(self, query: str, k: int, method: str,
                         scorer: str) -> list[tuple[int, float]]:
        if method not in ("auto", "bmax", "exhaustive"):
            raise ValueError(f"unknown search method {method!r}: "
                             "expected 'auto', 'bmax' or 'exhaustive'")
        terms = sorted(set(clean_query(query)))
        if not terms:
            return []
        if scorer != "bm25":
            return self._search_exhaustive(terms, k, scorer)
        if method == "auto":
            method = self._route_auto(terms, self._segments_for(terms))[0]
        if method == "bmax":
            return self._search_bmax(terms, k)
        return self._search_exhaustive(terms, k)

    def _route_auto(self, terms: list[str], segs: dict[str, list[dict]]
                    ) -> tuple[str, int]:
        """The ``method="auto"`` decision as (method, physical postings)
        — the one rule behind both ``search`` and ``plan``, the same on
        clean, appended, deleted and merged indexes: bmax for very large
        candidate sets, or below that when the candidate set is large
        and the corpus's doc lengths disperse enough for pruning to pay
        (the fast path — see the knobs in __init__); TAAT is the
        default. bmax itself hands the query to exhaustive scoring when
        its champion pre-test says its interval bounds cannot prune
        (_search_bmax)."""
        if self.shard_subset is None:
            n_postings = sum(self._physical_df(terms, segs).values())
        else:  # this subset's own postings, not the global df
            n_postings = sum(r["df"] for t in terms for r in segs[t])
        bmax = (n_postings >= self.wand_min_postings
                or (n_postings >= self.bmax_min_postings
                    and self._doclen_cv() >= self.bmax_min_dl_cv))
        return ("bmax" if bmax else "exhaustive"), n_postings

    def export_matches(self, query: str, scorer: str = "bm25"
                       ) -> tuple[np.ndarray, np.ndarray]:
        """The retrieval→Dataset bridge: EVERY alive doc matching ≥1
        query term, as (doc_ids, scores) ARRAYS in doc_id order — no
        top-k cut, no Python tuple list. Scores ride the exhaustive
        dense accumulator (same float order as search(), so any doc's
        exported score is bitwise its search score). This is the shard-
        local primitive for corpus extraction: callers broadcast the
        arrays (ray.put) and stream the corpus once attaching scores —
        at very large matched sets, run it per shard-subset engine so
        no single process holds the full matched set."""
        terms = sorted(set(clean_query(query)))
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        if not terms:
            return empty
        segs = self._segments_for(terms)
        custom = self._resolve_scorer(scorer, terms, segs)
        dfs = self._df_global(terms, segs)
        n_local = len(self.doclens.ids)
        acc = np.zeros(n_local, dtype=np.float64)
        hit = np.zeros(n_local, dtype=bool)
        any_rows = False
        for t in terms:  # sorted order → deterministic accumulation
            rows = segs[t]
            if not rows:
                continue
            p = self._decoded(t, rows)
            if custom is None:
                _add_wpart(acc, p)
            else:
                acc[p.didx] += custom(p.tfs, p.dls, dfs[t], t)
            hit[p.didx] = True
            any_rows = True
        if not any_rows:
            return empty
        m = np.flatnonzero(hit & self._alive)
        return self.doclens.ids[m].astype(np.int64), acc[m]

    def search_filtered(self, query: str, k: int = 10,
                        allowed_doc_ids=None,
                        scorer: str = "bm25",
                        plan: str = "auto") -> list[tuple[int, float]]:
        """Filtered retrieval (search-within-category, the drill-down
        behind facets): exact top-k restricted to ``allowed_doc_ids``.
        Always exhaustive scoring — pruning is UNSOUND under
        post-filtering (a filtered top-k can live entirely below the
        unfiltered pruning threshold, so block-max elision would drop
        it). Scores equal the unfiltered scores of the surviving docs
        (SQL WHERE-then-ORDER BY semantics).

        ``plan``: "dense" scores every posting then masks (cost ~ Σ df +
        one pass over the local doc space); "selective" probes each
        term's merged postings only at the allowed docs (cost ~
        |allowed| · log df per term) — the SCALE.md postings-intersect
        plan for very selective filters. "auto" routes selective when
        the allowed set is a small fraction of the local doc space
        (``filtered_selective_factor``). Both plans are bitwise
        rank/score identical (per-doc accumulation order is the same
        sorted-term order)."""
        terms = sorted(set(clean_query(query)))
        if not terms:
            return []
        allowed = None
        if allowed_doc_ids is not None:
            allowed = np.unique(
                np.asarray(allowed_doc_ids, dtype=np.int64))
        if allowed is None or plan == "dense":
            return self._search_exhaustive(terms, k, scorer, allowed=allowed)
        # local positions of the allowed docs actually present here
        lid = self.doclens.ids
        pos = np.searchsorted(lid, allowed)
        ok = pos < len(lid)
        pos = pos[ok]
        apos = pos[lid[pos] == allowed[ok]]  # sorted unique local indices
        if plan == "auto" and (len(apos) * self.filtered_selective_factor
                               > len(lid)):
            return self._search_exhaustive(terms, k, scorer, allowed=allowed)
        return self._search_filtered_selective(terms, k, scorer, apos)

    def search_many(self, queries: list[str], k: int = 10,
                    method: str = "auto", scorer: str = "bm25"
                    ) -> list[list[tuple[int, float]]]:
        """Batched multi-query retrieval (the Elasticsearch ``_msearch``
        shape): one engine call scores a whole query batch. The term
        caches (_seg_cache / _dec_cache) are shared across the batch, so
        a term repeated across queries is read and decoded once; on the
        sharded engine the same batch rides ONE RPC per worker
        (ShardedQueryEngine.search_many). Each element of the result is
        exactly ``search(queries[i], k)``."""
        return [self.search(q, k, method=method, scorer=scorer)
                for q in queries]

    def search_span_first(self, query: str, k: int = 10, *,
                          first_term: str, limit: int,
                          scorer: str = "bm25",
                          plan: str = "auto") -> list[tuple[int, float]]:
        """Span-first-gated ranking (the Lucene ``SpanFirstQuery``
        shape, the "term must appear in the title/lead" heuristic):
        only docs whose FIRST occurrence of ``first_term`` sits within
        the leading ``limit`` kept-token positions (positions are
        1-based, so the gate is position ≤ limit) are eligible;
        survivors are ranked by the plain ``query`` scorer with their
        UNFILTERED scores (search_filtered semantics — the gate is a
        filter, never a score contribution). The gate reads the
        positional sidecar alone (store_positions=True); the per-doc
        first position is O(1) off each posting run's start — positions
        within a doc are stored ascending."""
        toks = clean_query(first_term)
        if len(toks) != 1:
            raise ValueError("first_term must normalize to exactly one "
                             f"kept token, got {toks!r}")
        ids, tfs, pos = self.term_positions(toks[0])
        if len(ids) == 0:
            return []
        starts = np.cumsum(tfs) - tfs
        allowed = ids[pos[starts] <= limit]
        if len(allowed) == 0:
            return []
        return self.search_filtered(query, k, allowed_doc_ids=allowed,
                                    scorer=scorer, plan=plan)

    def search_span_not(self, query: str, k: int = 10, *,
                        include_term: str, exclude_term: str, dist: int,
                        scorer: str = "bm25",
                        plan: str = "auto") -> list[tuple[int, float]]:
        """Span-NOT-gated ranking (the Lucene ``SpanNotQuery`` shape,
        pre = post = ``dist``): a doc is eligible iff SOME occurrence of
        ``include_term`` has NO ``exclude_term`` occurrence within
        ``dist`` kept-token positions on either side — "merge, but not
        the merge that's part of 'merge sort'". Survivors are ranked by
        the plain ``query`` scorer with their UNFILTERED scores
        (search_filtered semantics — the positional gate is a filter,
        never a score contribution; search_span_first's contract with a
        negative gate).

        Vectorized: both position streams come off the positional
        sidecar; per-occurrence nearest-exclude distance is ONE global
        searchsorted over (local-doc, pos) keys packed with a modulus
        strictly larger than any position + dist, so cross-doc
        neighbors can never sit within ``dist``."""
        ti, te = clean_query(include_term), clean_query(exclude_term)
        if len(ti) != 1 or len(te) != 1:
            raise ValueError(
                "include/exclude terms must each normalize to exactly "
                f"one kept token, got {ti!r} / {te!r}")
        ids_i, tfs_i, pos_i = self.term_positions(ti[0])
        if len(ids_i) == 0:
            return []
        ids_e, tfs_e, pos_e = self.term_positions(te[0])
        if len(ids_e) == 0:
            allowed = ids_i
        else:
            both, j = sorted_member_mask(ids_e, ids_i, return_idx=True)
            allowed_parts = [ids_i[~both]]  # no exclude in doc → clean
            sel = np.flatnonzero(both)
            if len(sel):
                starts_i = np.cumsum(tfs_i) - tfs_i
                starts_e = np.cumsum(tfs_e) - tfs_e
                li = tfs_i[sel]
                base_i = np.cumsum(li) - li
                gi = (np.repeat(starts_i[sel], li)
                      + np.arange(int(li.sum())) - np.repeat(base_i, li))
                p_inc = pos_i[gi].astype(np.int64)
                d_loc = np.repeat(np.arange(len(sel), dtype=np.int64), li)
                je = j[sel]
                le = tfs_e[je]
                ebounds = np.concatenate(([0], np.cumsum(le)))
                ge = (np.repeat(starts_e[je], le)
                      + np.arange(int(le.sum()))
                      - np.repeat(ebounds[:-1], le))
                p_exc = pos_e[ge].astype(np.int64)
                d_loc_e = np.repeat(np.arange(len(sel), dtype=np.int64), le)
                m = np.int64(max(int(p_inc.max()), int(p_exc.max()))
                             + dist + 2)
                ke = d_loc_e * m + p_exc  # ascending: doc-major, pos asc
                ki = d_loc * m + p_inc
                far = np.int64(dist + 1)  # cross-doc diff ≥ m - maxpos > dist
                ins = np.searchsorted(ke, ki)
                ld = np.where(ins > 0, ki - ke[np.maximum(ins - 1, 0)], far)
                rd = np.where(ins < len(ke),
                              ke[np.minimum(ins, len(ke) - 1)] - ki, far)
                clean = np.minimum(ld, rd) > dist
                doc_clean = np.zeros(len(sel), dtype=bool)
                doc_clean[d_loc[clean]] = True
                allowed_parts.append(ids_i[sel[doc_clean]])
            allowed = np.sort(np.concatenate(allowed_parts))
        if len(allowed) == 0:
            return []
        return self.search_filtered(query, k, allowed_doc_ids=allowed,
                                    scorer=scorer, plan=plan)

    def _positions_subset(self, term: str, common: np.ndarray
                          ) -> np.ndarray:
        """Like ``_positions_over`` for a term NOT guaranteed present in
        every ``common`` doc: packed (index-into-common << 32 | pos) for
        the docs that do contain it — local indices reference positions
        in ``common`` so packed streams from different terms align."""
        ids, tfs, pos = self.term_positions(term)
        if len(ids) == 0 or len(common) == 0:
            return np.empty(0, np.int64)
        j = np.searchsorted(ids, common)
        hit = (j < len(ids)) & (ids[np.minimum(j, len(ids) - 1)]
                                == common)
        sel = np.flatnonzero(hit)
        if len(sel) == 0:
            return np.empty(0, np.int64)
        idx = j[hit]
        ends = np.cumsum(tfs)
        starts = ends - tfs
        ss, ll = starts[idx], tfs[idx]
        base = np.cumsum(ll) - ll
        g = (np.repeat(ss, ll) + np.arange(int(ll.sum()))
             - np.repeat(base, ll))
        m = np.int64(1) << np.int64(32)
        return (np.repeat(sel.astype(np.int64), ll) * m
                + pos[g].astype(np.int64))

    def search_phrase_prefix(self, phrase: str, k: int = 10, *,
                             max_expansions: int = 50,
                             scorer: str = "bm25", plan: str = "auto"
                             ) -> list[tuple[int, float]]:
        """Phrase-prefix gating (the Elasticsearch ``match_phrase_prefix``
        shape — "merge s" matches "merge sort", "merge stream", …): the
        LAST token is a prefix, expanded through the term_dict's sorted
        range to at most ``max_expansions`` terms in term order (the ES
        expansion cap — bounded work however common the prefix); a doc
        matches when the fixed tokens occur as an exact adjacent phrase
        immediately followed by ANY expansion. The gate runs on the
        positional sidecar alone (the phrase_occurrences adjacency
        chain, with the final link an OR over expansion position sets);
        survivors are ranked by the fixed terms with their UNFILTERED
        scores (the phrase_ranked / span_first filter-not-boost
        convention). A phrase of ONLY the prefix token is refused —
        that shape is ``search_wildcard`` / the boolean DSL's ``t*``
        atom, which carry the membership semantics.

        The trailing prefix is normalized (regex-clean + lowercase) but
        NOT stopword-filtered — it is a prefix of a kept term, not a
        kept term itself ("merge s" must expand 's', and 'so*' must not
        vanish because 'so' is a stopword)."""
        from .text import _CLEAN_RE

        parts = phrase.rsplit(None, 1)
        if len(parts) < 2:
            raise ValueError(
                "phrase needs ≥2 whitespace-separated tokens (fixed "
                "terms + trailing prefix); a bare prefix is "
                "search_wildcard")
        fixed = clean_query(parts[0], max_tokens=None)
        prefix = _CLEAN_RE.sub("", parts[1]).lower().strip()
        if not fixed or not prefix:
            raise ValueError(
                "phrase must normalize to ≥1 kept fixed token plus a "
                "non-empty trailing prefix")
        exps = self.prefix_terms(prefix)[:max_expansions]
        if not exps:
            return []
        common = self._common_docs(sorted(set(fixed)))
        if len(common) == 0:
            return []
        packed = self._positions_over(fixed, common)
        cur = packed[0]
        for nxt in packed[1:]:
            cur = np.intersect1d(cur + 1, nxt, assume_unique=True)
        if len(cur) == 0:
            return []
        exp_pos = np.unique(np.concatenate(
            [self._positions_subset(e, common) for e in exps]))
        hit = cur[np.isin(cur + 1, exp_pos, assume_unique=False)]
        if len(hit) == 0:
            return []
        allowed = common[np.unique(hit >> np.int64(32))]
        return self.search_filtered(" ".join(fixed), k,
                                    allowed_doc_ids=allowed,
                                    scorer=scorer, plan=plan)

    def plan(self, query: str, k: int = 10) -> dict:
        """Query-plan introspection (the latency-debugging counterpart
        of ``explain``): what WOULD ``search(query, k)`` do and read,
        without scoring. Returns ``{"terms": [{"term", "df",
        "segment_rows", "cached"}...], "n_postings", "doclen_cv",
        "method", "dense_terms", "candidate_files", "files_to_read"}``
        — ``method`` reproduces the auto-router's exact decision
        (same thresholds, same inputs); ``dense_terms`` lists the terms
        scored through a dense contribution vector (``_dense_term`` of
        the rows' df, so nothing is decoded); the file counts expose
        the two cold-read pruning layers (term-bucket map, then the
        exact term-only verify). ``files_to_read`` is None when every
        needed term is already cached (no read would happen) and also
        when no map exists (whole-directory read). When ``method`` is
        bmax, the plan also holds bmax's pre-test (_bmax_bounds, which
        decodes the terms): ``bmax_theta0``, the champion floor θ₀
        (None when the champions hold fewer than k docs),
        ``bmax_floor``, the interval floor under every bound (at or
        above θ₀, the pre-test ends without building the bounds), and
        ``bmax_pretest_share``, the share of the query's postings in
        intervals whose bound is ≥ θ₀ — above 0.5, bmax hands the query
        to exhaustive scoring."""
        terms = sorted(set(clean_query(query)))
        if not terms:
            return {"terms": [], "n_postings": 0, "method": None,
                    "candidate_files": None, "files_to_read": None}
        missing = [t for t in terms if t not in self._seg_cache]
        cand = self._seg_paths_for(missing) if missing else None
        reads = (self._segments_verified_paths(missing)
                 if missing else None)
        segs = self._segments_for(
            terms, verified_paths=(reads if missing else QueryEngine._AUTO))
        dfs = self._df_global(terms, segs)
        per_term = [{"term": t, "df": int(dfs[t]),
                     "segment_rows": len(segs[t]),
                     "cached": t not in missing} for t in terms]
        method, n_postings = self._route_auto(terms, segs)
        out = {
            "terms": per_term,
            "n_postings": n_postings,
            "doclen_cv": round(self._doclen_cv(), 4),
            "method": method,
            "dense_terms": [t for t in terms if segs[t] and self._dense_term(
                sum(r["df"] for r in segs[t]))],
            "candidate_files": (len(cand) if cand is not None else None),
            "files_to_read": (len(reads) if reads is not None else None),
        }
        bounds = (self._bmax_bounds(terms, k)
                  if method == "bmax" and k >= 1 else None)
        if bounds is not None:
            posts, _, _, theta0, n_hot, floor = bounds
            out["bmax_theta0"] = theta0 if theta0 > -np.inf else None
            out["bmax_floor"] = floor
            out["bmax_pretest_share"] = round(
                n_hot / sum(len(p.didx) for p in posts), 4)
        return out

    def explain(self, query: str, doc_id: int,
                scorer: str = "bm25") -> dict:
        """Per-term score breakdown for one (query, doc) pair — the
        serving-engine debugging surface (why did this doc rank here?).

        Returns ``{"doc_id", "alive", "score", "scorer", "terms":
        [{"term", "df", "tf", "doc_len", "idf", "tf_part",
        "contribution"}, ...]}``. Contributions accumulate in the
        exhaustive scorer's exact order (sorted terms, one add per
        term), so ``score`` is BITWISE equal to the doc's score in
        ``search`` results (pytest-pinned). Terms absent from the doc
        contribute nothing and are reported with ``tf=0``. A tombstoned
        or unknown doc returns ``alive=False`` with no scoring (it can
        never surface in search). Any registry scorer works —
        collection-stats scorers get their cf/total_len binding exactly
        as in search; the bm25-specific ``idf``/``tf_part`` fields are
        None for other scorers (their contribution need not factor)."""
        terms = sorted(set(clean_query(query)))
        out: dict = {"doc_id": int(doc_id), "alive": True, "score": 0.0,
                     "scorer": scorer, "terms": []}
        lid = self.doclens.ids
        pos = int(np.searchsorted(lid, doc_id))
        if pos >= len(lid) or lid[pos] != doc_id or not self._alive[pos]:
            out["alive"] = False
            return out
        if not terms:
            return out
        segs = self._segments_for(terms)
        custom = self._resolve_scorer(scorer, terms, segs)
        dfs = self._df_global(terms, segs)
        score = 0.0
        for t in terms:
            w = idf_fn(self.n_docs, dfs[t])
            tf_sum, contrib, dl = 0, 0.0, int(self.doclens.lens[pos])
            p = self._decoded(t, segs[t]) if segs[t] else None
            j = -1 if p is None else int(np.searchsorted(p.didx, pos))
            if 0 <= j < len(p.didx) and p.didx[j] == pos:
                # same float op as the accumulator add
                c = (w * p.part[j] if custom is None
                     else float(custom(p.tfs, p.dls, dfs[t], t)[j]))
                score += c
                contrib += c
                tf_sum = int(p.tfs[j])
            out["terms"].append({
                "term": t, "df": int(dfs[t]), "tf": tf_sum, "doc_len": dl,
                "idf": float(w) if custom is None else None,
                "tf_part": ((contrib / w) if w else 0.0)
                if custom is None else None,
                "contribution": contrib})
        out["score"] = score
        return out

    def _bm25_and_matches(self, terms: list[str]
                          ) -> tuple[np.ndarray, np.ndarray]:
        """Dense BM25 accumulator over the local doc space and, per doc,
        how many of ``terms`` it holds — a doc appears once in a term's
        merged postings, so the count is a plain scatter-add alongside
        the scores. The shared pass of the matched-term-count scorers
        (min_should_match, terms_set, coord)."""
        segs = self._segments_for(terms)
        n_local = len(self.doclens.ids)
        acc = np.zeros(n_local, dtype=np.float64)
        nmatch = np.zeros(n_local, dtype=np.int32)
        for t in terms:  # sorted order → deterministic accumulation
            if segs[t]:
                p = self._decoded(t, segs[t])
                _add_wpart(acc, p)
                nmatch[p.didx] += 1
        return acc, nmatch

    def search_min_should_match(self, query: str, min_match: int,
                                k: int = 10) -> list[tuple[int, float]]:
        """Minimum-should-match retrieval (the Lucene/ES
        ``minimum_should_match`` analog): BM25 top-k restricted to docs
        matching at least ``min_match`` DISTINCT query terms — the
        middle ground between OR (min_match=1 == plain search) and AND
        (min_match=n_terms == search_conjunctive). Surviving docs keep
        their full accumulated scores over the terms they DO match,
        exactly SQL's HAVING count(DISTINCT term) >= m then ORDER BY."""
        terms = sorted(set(clean_query(query)))
        if not terms:
            return []
        if min_match <= 1:
            return self._search_exhaustive(terms, k)
        acc, nmatch = self._bm25_and_matches(terms)
        hit = nmatch >= min_match
        if not hit.any():
            return []
        return self._topk_dense(acc, hit, k)

    def search_terms_set(self, query: str, msm_fn,
                         k: int = 10) -> list[tuple[int, float]]:
        """ES ``terms_set`` query: minimum-should-match is PER DOC,
        supplied by a doc-values function (ES's
        ``minimum_should_match_field``) — ``msm_fn`` maps an int64
        array of global doc ids to their thresholds. At 100 TB the
        thresholds are a per-shard doc-values sidecar loaded in worker
        __init__ (the feature_boost pattern); here a deterministic
        function of the id plays that role. Same scatter-added
        matched-term counter as search_min_should_match; the gate
        compares each doc's count against its OWN threshold, survivors
        keep their full accumulated scores."""
        terms = sorted(set(clean_query(query)))
        if not terms:
            return []
        acc, nmatch = self._bm25_and_matches(terms)
        m = np.asarray(msm_fn(self.doclens.ids), dtype=np.int64)
        hit = nmatch >= m
        if not hit.any():
            return []
        return self._topk_dense(acc, hit, k)

    def search_constant_score(self, expr: str, boost: float = 1.0,
                              k: int = 10) -> list[tuple[int, float]]:
        """ES ``constant_score`` query: a filter-context match (the
        boolean DSL evaluator — no scoring work at all) where every
        matching doc gets exactly ``boost``. Ties are total, so the
        deterministic order is doc_id ascending (Lucene's index order
        for equal scores)."""
        ids = self.search_boolean_dsl(expr)
        return [(int(d), float(boost)) for d in ids[:k]]

    def search_span_near(self, terms: list[str], k: int = 10, *,
                         slop: int = 2, scorer: str = "bm25"
                         ) -> list[tuple[int, float]]:
        """Unordered SpanNearQuery (Lucene ``span_near`` with
        in_order=false): docs where SOME token window of length ≤
        n_distinct_terms + slop covers every term — order-free, the
        unordered sibling of search_phrase_ranked — ranked by the text
        scorer over the terms. Matching comes from the positional
        sidecar alone (min_cover_windows); survivors keep their full
        unfiltered scores (the proven gate → search_filtered
        composition). Requires store_positions=True."""
        uniq = sorted(set(terms))
        if not uniq:
            return []
        ids, w = self.min_cover_windows(uniq)
        allowed = ids[w <= len(uniq) + slop]
        if len(allowed) == 0:
            return []
        return self.search_filtered(" ".join(uniq), k,
                                    allowed_doc_ids=allowed, scorer=scorer)

    def intervals_match(self, terms: list[str], *, max_gaps: int = 0,
                        not_containing: str | None = None) -> np.ndarray:
        """ES ``intervals`` matching: docs with an ORDERED interval of
        ``terms`` using at most ``max_gaps`` non-matching positions
        between the first and last term, optionally filtered by
        ``not_containing`` (no occurrence of that term inside the
        interval). Exactness argument: for a fixed start (an occurrence
        of terms[0]) the greedy earliest-next chain yields that start's
        MINIMAL interval, and every other interval from the same start
        spans a superset of it — so (a) if the minimal interval breaks
        the gap bound, all do, and (b) an excluded-term occurrence
        inside the minimal interval lies inside every interval from
        that start. Checking one interval per start is therefore exact.
        Returns sorted matching doc_ids. Requires
        store_positions=True."""
        if not terms:
            return np.empty(0, np.int64)
        common = self._common_docs(sorted(set(terms)))
        if len(common) == 0:
            return np.empty(0, np.int64)
        packed = self._positions_over(terms, common)
        starts = packed[0]
        cur, valid = _chain_earliest(
            packed[1:], starts, np.ones(len(starts), dtype=bool))
        sh = np.int64(32)
        mask = (np.int64(1) << sh) - 1
        valid &= (cur >> sh) == (starts >> sh)
        w = (cur & mask) - (starts & mask) + 1
        valid &= w <= len(terms) + max_gaps  # gaps = w - len(terms)
        if not_containing is not None and valid.any():
            ex = clean_query(not_containing)
            if len(ex) != 1:
                raise ValueError(
                    f"not_containing {not_containing!r} must normalize "
                    "to one term")
            xpk = self._positions_subset(ex[0], common)
            if len(xpk):
                lo = np.searchsorted(xpk, starts, side="left")
                hi = np.searchsorted(xpk, cur, side="right")
                valid &= hi <= lo  # no excluded occurrence in [s, e]
        if not valid.any():
            return np.empty(0, np.int64)
        return common[np.unique(starts[valid] >> sh).astype(np.int64)]

    def span_containing_match(self, big: list[str], little: str, *,
                              max_gaps: int = 0) -> np.ndarray:
        """Lucene/ES ``span_containing`` with a span_term little query:
        docs where SOME ordered interval of ``big`` (gap bound as in
        intervals_match) CONTAINS an occurrence of ``little``.
        Containment needs the WIDEST reachable interval per start, not
        the minimal one: the chain over big[:-1] takes greedy-earliest
        positions (any valid chain's prefix end is ≥ this, so it
        maximizes the final term's room), then the final term's LATEST
        occurrence within the width budget is the maximal end e_max —
        an interval from start s contains x iff s ≤ x ≤ e_max (pick the
        final occurrence ≥ x; it is valid by e_max's bound). Returns
        sorted matching doc_ids. Requires store_positions=True."""
        if len(big) < 2:
            raise ValueError("big span needs ≥ 2 terms")
        lt = clean_query(little)
        if len(lt) != 1:
            raise ValueError(f"little {little!r} must normalize to one "
                             "term")
        common = self._common_docs(sorted(set(big)))
        if len(common) == 0:
            return np.empty(0, np.int64)
        packed = self._positions_over(big, common)
        starts = packed[0]
        # greedy-earliest prefix chain over big[1:-1]
        cur, valid = _chain_earliest(
            packed[1:-1], starts, np.ones(len(starts), dtype=bool))
        # final term: LATEST occurrence after the prefix end, within
        # the width budget w ≤ len(big) + max_gaps (same-doc by packing)
        budget = np.int64(len(big) + max_gaps)
        last = packed[-1]
        hi_key = np.where(valid, starts + budget - 1, np.int64(-1))
        jlo = np.searchsorted(last, cur, side="right")
        jhi = np.searchsorted(last, hi_key, side="right")
        valid &= jhi > jlo  # ≥1 final occurrence in (prefix_end, s+b-1]
        emax = last[np.maximum(jhi - 1, 0)]
        sh = np.int64(32)
        valid &= (emax >> sh) == (starts >> sh)
        # little containment: ∃x with s ≤ x ≤ e_max (packed keys)
        xpk = self._positions_subset(lt[0], common)
        if len(xpk) == 0:
            return np.empty(0, np.int64)
        lo = np.searchsorted(xpk, starts, side="left")
        hi = np.searchsorted(xpk, emax, side="right")
        valid &= hi > lo
        if not valid.any():
            return np.empty(0, np.int64)
        return common[np.unique(starts[valid] >> sh).astype(np.int64)]

    def search_span_containing(self, big: list[str], little: str,
                               k: int = 10, *, max_gaps: int = 0,
                               scorer: str = "bm25"
                               ) -> list[tuple[int, float]]:
        """ES ``span_containing``: the span_containing_match gate ranked
        by the text scorer over the big-span terms (gate →
        search_filtered; survivors keep full unfiltered scores)."""
        allowed = self.span_containing_match(big, little,
                                             max_gaps=max_gaps)
        if len(allowed) == 0:
            return []
        return self.search_filtered(" ".join(sorted(set(big))), k,
                                    allowed_doc_ids=allowed,
                                    scorer=scorer)

    def search_intervals(self, terms: list[str], k: int = 10, *,
                         max_gaps: int = 0,
                         not_containing: str | None = None,
                         scorer: str = "bm25"
                         ) -> list[tuple[int, float]]:
        """ES ``intervals`` query: the intervals_match gate (ordered,
        max_gaps, optional not_containing filter) ranked by the text
        scorer over the interval terms — survivors keep their full
        unfiltered scores (the proven gate → search_filtered
        composition, same as span_near/phrase_ranked)."""
        allowed = self.intervals_match(terms, max_gaps=max_gaps,
                                       not_containing=not_containing)
        if len(allowed) == 0:
            return []
        return self.search_filtered(" ".join(sorted(set(terms))), k,
                                    allowed_doc_ids=allowed, scorer=scorer)

    def search_coord(self, query: str, k: int = 10
                     ) -> list[tuple[int, float]]:
        """Coordination-factor ranking (classic Lucene coord(q,d),
        pre-BM25 TFIDFSimilarity): final = bm25(d) · (matched/|q|),
        where matched = how many DISTINCT query terms the doc contains.
        Docs matching more of the query are promoted multiplicatively —
        the historical middle ground between pure disjunction and
        min_should_match's hard cutoff. Same scatter-accumulated
        matched-term counter as search_min_should_match; the final
        per-doc expression is score · (matched / n_terms) in exactly
        the SQL mirror's order."""
        terms = sorted(set(clean_query(query)))
        if not terms:
            return []
        acc, nmatch = self._bm25_and_matches(terms)
        hit = nmatch > 0
        if not hit.any():
            return []
        nq = float(len(terms))
        acc[hit] = acc[hit] * (nmatch[hit].astype(np.float64) / nq)
        return self._topk_dense(acc, hit, k)

    def search_conjunctive(self, query: str, k: int = 10,
                           scorer: str = "bm25"
                           ) -> list[tuple[int, float]]:
        """AND-semantics ranked retrieval: BM25 top-k restricted to docs
        containing EVERY query term. Candidates come from intersecting
        the terms' posting id-sets (term_doc_ids), then the selective
        filtered scorer probes ONLY the candidates — cost scales with
        |candidates|, not Σ df. Scores equal the unfiltered scores of
        the surviving docs (SQL HAVING-all-terms then ORDER BY)."""
        terms = sorted(set(clean_query(query)))
        if not terms:
            return []
        common: np.ndarray | None = None
        for t in terms:
            ids = self.term_doc_ids(t)
            common = ids if common is None else np.intersect1d(
                common, ids, assume_unique=True)
            if len(common) == 0:
                return []
        lid = self.doclens.ids
        pos = np.searchsorted(lid, common)
        ok = pos < len(lid)
        pos = pos[ok]
        apos = pos[lid[pos] == common[ok]]
        return self._search_filtered_selective(terms, k, scorer, apos)

    def _search_filtered_selective(self, terms: list[str], k: int,
                                   scorer: str, apos: np.ndarray
                                   ) -> list[tuple[int, float]]:
        """Selective-filter scoring: accumulate ONLY the allowed docs
        (``apos`` = their sorted local indices). Each term's merged
        decode is probed at the allowed positions via one searchsorted —
        postings never scatter into the full doc space, so cost scales
        with |allowed| · log df per term, not Σ df. Per-doc adds happen
        in the same sorted-term order as the dense path → bitwise
        identical."""
        apos = apos[self._alive[apos]]
        if len(apos) == 0:
            return []
        segs = self._segments_for(terms)
        custom = self._resolve_scorer(scorer, terms, segs)
        dfs = self._df_global(terms, segs)
        acc = np.zeros(len(apos), dtype=np.float64)
        hit = np.zeros(len(apos), dtype=bool)
        for t in terms:  # sorted order → deterministic accumulation
            rows = segs[t]
            if not rows:
                continue
            p = self._decoded(t, rows)
            m, src = sorted_member_mask(p.didx, apos, return_idx=True)
            src = src[m]                     # the matching postings
            if custom is None:
                acc[m] += p.wpart[src]
            else:
                acc[m] += custom(p.tfs, p.dls, dfs[t], t)[src]
            hit |= m
        sel = _topk_select(acc, k, hit)       # apos ascends with doc id
        return list(zip(self.doclens.ids[apos[sel]].tolist(),
                        acc[sel].tolist()))

    def term_bucket_bitmap(self, bits: int) -> bytes:
        """``bits``-wide presence bitmap of the term hash-buckets in
        this engine's shard subset (one term-column scan at call time,
        unique → hash % bits → packbits). A worker holding ANY posting
        for a term always has that term's bucket set, so the driver
        skipping bitmap-miss workers is exact — a skipped worker could
        only ever have returned []. Collisions only create false
        positives (extra fan-out), never misses; size ``bits`` ≳ 32×
        the per-worker vocabulary to keep the false-fan-out rate under
        ~3% per worker."""
        filters = None
        if self.shard_subset is not None:
            filters = [("shard", "in", list(self.shard_subset))]
        t = pq.read_table(self._seg_dir, columns=["term"], filters=filters)
        out = np.zeros(bits, dtype=bool)
        uniq = t["term"].combine_chunks().unique()
        if len(uniq):
            import pandas as pd

            h = (pd.util.hash_array(uniq.to_numpy(zero_copy_only=False))
                 % np.uint64(bits)).astype(np.int64)
            out[h] = True
        return np.packbits(out).tobytes()


class ShardedQueryEngine:
    """Distributed query serving: the index's doc-id shards are
    partitioned across a pool of Ray actors, each holding its subset's
    postings/doclens hot; a query fans out, each worker returns its
    local top-k, and the driver merges (score desc, doc_id asc).

    This is the SURVEY.md E2 fan-out — the one place raw @ray.remote
    actors are justified over the Dataset API (per-query RPC against
    long-lived mutable cache state). Results are bitwise identical to
    the single-process QueryEngine (global df from term_dict).

    Each worker IS a ``QueryEngine`` over its shard subset
    (``ray.remote(QueryEngine)``), so most sharded surfaces are one
    ``_fanout`` of the engine method of the same name plus a merge.
    Those are generated from the ``_FANOUT`` table below, with the
    engine method's own signature and docstring; the surfaces that only
    compose other surfaces are the engine's own definitions. What is
    written here routes by doc owner, caches, batches, or merges in its
    own way."""

    def __init__(self, index_dir: str, num_workers: int = 8,
                 num_cpus_per_worker: float = 1.0,
                 route_terms: bool = False, request_cache: int = 0):
        import ray

        from .append import resolve_index_alias

        index_dir = resolve_index_alias(index_dir)  # alias dirs welcome
        stats = load_stats(index_dir)
        n_shards = int(stats["num_shards"])
        num_workers = min(num_workers, n_shards)
        chunks = np.array_split(np.arange(n_shards), num_workers)
        worker_cls = ray.remote(num_cpus=num_cpus_per_worker)(QueryEngine)
        self.workers = [worker_cls.remote(index_dir, shard_subset=c.tolist())
                        for c in chunks if len(c)]
        self._n_shards = n_shards
        self._worker_of_shard = {int(s): wi
                                 for wi, c in enumerate(chunks)
                                 for s in c}
        self._route_bits: np.ndarray | None = None
        # driver-side request cache over MERGED results (the workers'
        # open views are frozen — the single-engine cache contract)
        self._req_cache = _RequestCache(request_cache)
        if route_terms:
            self.enable_term_routing()

    def _fanout(self, method: str, *args, route: list[str] | None = None,
                **kwargs) -> list:
        """Call the engine ``method`` on every worker — or only on the
        workers term routing keeps for the query texts in ``route`` —
        and return their results in worker order."""
        import ray

        workers = (self.workers if route is None
                   else self._routed_workers(route))
        return ray.get([getattr(w, method).remote(*args, **kwargs)
                        for w in workers])

    def _owner(self, doc_id: int):
        """The ONE worker whose shard subset holds ``doc_id``."""
        from .schema import shard_of

        shard = int(shard_of(np.asarray([doc_id], dtype=np.int64),
                             self._n_shards)[0])
        return self.workers[self._worker_of_shard[shard]]

    def clear_request_cache(self) -> None:
        """Drop every cached merged result (the ES clear-cache API)."""
        self._req_cache.clear()

    def enable_term_routing(self, bits: int = 1 << 20) -> None:
        """Term-based shard selection (the resource-selection idea from
        federated search): fetch each worker's term-bucket bitmap once
        (parallel one-off term-column scans; ``bits``/8 bytes each,
        default 128 KiB), then route every search/search_many past
        workers whose bitmap misses ALL query-term buckets. Exact — a
        skipped worker holds no posting for any query term, so its
        contribution was always []. Driver-side routing state is
        num_workers × bits/8 regardless of corpus size; at 100 TB this
        is the per-shard term summary a federation tier holds for
        thousands of shards (size bits ≳ 32× per-worker vocab — e.g.
        2²⁷ bits = 16 MiB for a 4M-term shard), and the win is
        proportional to term rarity: rare/cold terms touch 1–2 workers
        instead of all. Hot-term queries still fan out everywhere —
        routing only prunes RPCs that would have returned []."""
        self._route_bits = np.stack([
            np.unpackbits(np.frombuffer(b, np.uint8)).astype(bool)
            for b in self._fanout("term_bucket_bitmap", bits)])

    def _routed_workers(self, queries: list[str]) -> list:
        """Workers that can hold ≥1 posting of ≥1 query term (all of
        them when routing is off). Superset-exact: see
        enable_term_routing."""
        if self._route_bits is None:
            return list(self.workers)
        terms = sorted({t for q in queries for t in clean_query(q)})
        if not terms:
            return []
        import pandas as pd

        buckets = (pd.util.hash_array(np.asarray(terms, dtype=object))
                   % np.uint64(self._route_bits.shape[1])).astype(np.int64)
        hits = self._route_bits[:, buckets].any(axis=1)
        return [w for w, h in zip(self.workers, hits) if h]

    def search(self, query: str, k: int = 10, method: str = "auto",
               scorer: str = "bm25") -> list[tuple[int, float]]:
        return self._req_cache.lookup(self._search_uncached,
                                      query, k, method, scorer)

    def _search_uncached(self, query: str, k: int, method: str,
                         scorer: str) -> list[tuple[int, float]]:
        return _topk(self._fanout("search", query, k, method, scorer,
                                  route=[query]), k)

    def explain(self, query: str, doc_id: int,
                scorer: str = "bm25") -> dict:
        """Per-term score breakdown, routed to the ONE worker whose
        shard subset owns the doc (df comes from the term_dict, so the
        breakdown is bitwise identical to the full engine's)."""
        import ray

        return ray.get(self._owner(doc_id).explain.remote(query, doc_id,
                                                          scorer))

    def search_pinned(self, query: str, pinned_ids, k: int = 10,
                      method: str = "auto", scorer: str = "bm25"
                      ) -> list[tuple[int, float, bool]]:
        """Distributed pinned (promoted-results) query: each pinned id
        routes to the ONE worker owning its shard (the alive check and
        the matched score come from the owner's explain — bitwise the
        search score), in parallel; organic results are the standard
        top-(k+P) fan-out merge with pinned ids excluded. Identical to
        the single engine's composition by construction."""
        import ray

        ordered = list(dict.fromkeys(int(d) for d in pinned_ids))
        explained = ray.get([self._owner(d).explain.remote(query, d, scorer)
                             for d in ordered])
        out = [(d, ex["score"], True)
               for d, ex in zip(ordered, explained) if ex["alive"]][:k]
        if len(out) < k:
            seen = set(ordered)
            for d, s in self.search(query, k + len(seen), method=method,
                                    scorer=scorer):
                if len(out) >= k:
                    break
                if d not in seen:
                    out.append((d, s, False))
        return out

    def search_many(self, queries: list[str], k: int = 10,
                    method: str = "auto", scorer: str = "bm25"
                    ) -> list[list[tuple[int, float]]]:
        """Batched fan-out: ONE RPC per worker for the whole query batch
        (per-query RPC overhead amortized; workers score their shard
        subsets for all queries, driver merges per query)."""
        parts = self._fanout("search_many", queries, k, method, scorer,
                             route=queries)
        return [_topk([p[qi] for p in parts], k)
                for qi in range(len(queries))]

    def warm(self, queries: list[str]) -> None:
        self._fanout("search_many", queries, 10)

    # surfaces that only compose other public surfaces: the engine's
    # own definitions, exact because every surface they call is
    search_constant_score = QueryEngine.search_constant_score
    search_boosting = QueryEngine.search_boosting
    search_match_bool_prefix = QueryEngine.search_match_bool_prefix
    search_simple_query_string = QueryEngine.search_simple_query_string
    search_rescore = QueryEngine.search_rescore

    def search_sorted_by(self, expr: str, k: int = 10, *,
                         field_ids, field_vals, descending: bool = True
                         ) -> list[tuple[int, float]]:
        """Distributed sort-by-field: per-worker boolean match + field
        gather (field arrays ship once via ray.put), driver merges by
        (value, doc_id). Exact: each worker returns its local top-k by
        the same key, and the global top-k is contained in the union
        of local top-ks."""
        import ray

        parts = self._fanout(
            "search_sorted_by", expr, k,
            field_ids=ray.put(np.asarray(field_ids, dtype=np.int64)),
            field_vals=ray.put(np.asarray(field_vals)),
            descending=descending)
        return _topk(parts, k, key=(lambda x: (-x[1], x[0])) if descending
                     else (lambda x: (x[1], x[0])))

    def search_collapse(self, query: str, k: int = 10, *,
                        group_ids, group_codes, per_group: int = 1,
                        scorer: str = "bm25") -> list[tuple[int, int, float]]:
        """Distributed field-collapsed top-k. Groups need NOT be
        shard-local: each worker returns its local collapsed top-k
        (ships the group mapping once via ray.put), the driver merges
        by (score desc, doc_id asc) and re-collapses. Exact because
        any doc cut by a worker's local-k was beaten there by k
        collapsed survivors, each of which either reaches the global
        list or loses only to a better same-group doc — so k better
        results always exist globally. Bitwise-identical to the
        single-engine result (tested)."""
        import ray

        gi = np.asarray(group_ids, dtype=np.int64)
        gc = np.asarray(group_codes, dtype=np.int64)
        if len(gc) and gc.min() < 0:
            raise ValueError("group_codes must be non-negative "
                             "(-1 is the internal singleton sentinel)")
        parts = self._fanout("search_collapse", query, k,
                             group_ids=ray.put(gi), group_codes=ray.put(gc),
                             per_group=per_group, scorer=scorer)
        return _collapse_walk(_topk(parts, None, key=lambda x: (-x[2], x[0])),
                              per_group, k)


# The generated half of ShardedQueryEngine: engine method name →
# (merge, term-routed, array keyword arguments shipped once).
#
# Why each merge is exact. Shards partition the docs, every doc's
# postings and positions live in exactly one worker, and each worker
# takes df from the index-global term_dict (and expands prefixes,
# regexes and phrase prefixes over it), so whatever a surface computes
# for one doc — its score, matched-term count, positional gate, feature
# row or cursor test — is what the single engine computes for it.
#   "topk"  ranked lists: the global top-k in (score desc, doc_id asc)
#           order lies in the union of the workers' local top-ks; one
#           sort of that union cut at k is the single engine's list.
#   "doc"   per-doc arrays (doc_ids, col, ...) over disjoint doc sets:
#           concatenate and stable-sort by doc id (_concat_by_doc).
#   "ids"   boolean-DSL matched ids: a NOT complements each worker's
#           local alive docs, and the disjoint local complements union
#           to the global one; concatenate and sort.
# Term routing skips a worker only when it holds no posting of any
# word of the ``query`` argument; the routed surfaces return only docs
# holding a query term, so the skipped workers' parts were all [].
# Shipped arrays go to the object store once (ray.put); Ray resolves a
# top-level ObjectRef argument on the worker, so every worker reads the
# same copy. A None argument is passed as is.
_MERGES = {
    "topk": _topk,
    "doc": lambda parts, k: _concat_by_doc(parts),
    "ids": lambda parts, k: np.sort(np.concatenate(parts)),
}
_FEATURES = ("feature_ids", "feature_vals")
_FANOUT: dict[str, tuple[str, bool, tuple[str, ...]]] = {
    "search_boosted": ("topk", False, ()),
    "search_synonym_groups": ("topk", False, ()),
    "search_feature_boost": ("topk", False, _FEATURES),
    "search_min_should_match": ("topk", False, ()),
    "search_terms_set": ("topk", False, ()),
    "search_span_near": ("topk", False, ()),
    "search_intervals": ("topk", False, ()),
    "search_span_containing": ("topk", False, ()),
    "search_query_string": ("topk", False, ()),
    "search_filtered": ("topk", False, ("allowed_doc_ids",)),
    "search_span_first": ("topk", False, ()),
    "search_span_not": ("topk", False, ()),
    "search_phrase_prefix": ("topk", False, ()),
    "search_proximity_boost": ("topk", False, ()),
    "search_coord": ("topk", True, ()),
    "search_feature_scale": ("topk", True, _FEATURES),
    "search_bool_query": ("topk", False, ()),
    "search_phrase_ranked": ("topk", False, ()),
    "search_after": ("topk", True, ()),
    "export_matches": ("doc", False, ()),
    "search_wildcard": ("doc", False, ()),
    "search_regex": ("doc", False, ()),
    "phrase_occurrences": ("doc", False, ()),
    "near_min_gaps": ("doc", False, ()),
    "min_ordered_spans": ("doc", False, ()),
    "min_cover_windows": ("doc", False, ("within",)),
    "search_boolean_dsl": ("ids", False, ()),
}


def _fanned(name: str, merge: str, route: bool, ship: tuple[str, ...]):
    """The ShardedQueryEngine method for engine method ``name``: bind
    the call to the engine's signature, ship the ``ship`` arrays, fan
    out, merge (see _FANOUT)."""
    meth = getattr(QueryEngine, name)
    sig = inspect.signature(meth)
    combine = _MERGES[merge]

    @functools.wraps(meth)
    def fan(self, *args, **kwargs):
        bound = sig.bind(self, *args, **kwargs)
        bound.apply_defaults()
        arg = bound.arguments
        for a in ship:
            if arg[a] is not None:
                import ray

                arg[a] = ray.put(np.asarray(arg[a]))
        parts = self._fanout(name, *bound.args[1:],
                             route=[arg["query"]] if route else None,
                             **bound.kwargs)
        return combine(parts, arg.get("k"))

    fan.__qualname__ = f"ShardedQueryEngine.{name}"
    return fan


for _name, _spec in _FANOUT.items():
    setattr(ShardedQueryEngine, _name, _fanned(_name, *_spec))
del _name, _spec


class BM25SearchActor:
    """Actor-pool stage for batch-query throughput: index state loaded once
    per actor (__init__), scoring per batch (__call__) — the stateful-stage
    pattern of SURVEY.md §2.3 F6."""

    def __init__(self, index_dir: str, k: int = 10, method: str = "auto"):
        self.engine = QueryEngine(index_dir)
        self.k = k
        self.method = method

    def __call__(self, batch):
        import pyarrow as pa

        queries = batch["query"].to_pylist()
        q_out, d_out, r_out, s_out = [], [], [], []
        for q in queries:
            for rank, (doc_id, score) in enumerate(
                    self.engine.search(q, self.k, self.method), 1):
                q_out.append(q)
                d_out.append(doc_id)
                r_out.append(rank)
                s_out.append(score)
        return pa.table({"query": q_out, "doc_id": d_out,
                         "rank": r_out, "score": s_out})


class FederatedQueryEngine:
    """Virtual multi-index search: query K independently built indexes
    (disjoint doc-id spaces — the merge_indexes contract) as ONE index,
    bitwise identical to ``QueryEngine(merge_indexes(sources))`` without
    materializing the merge. Union collection stats are derived exactly
    as merge_indexes writes them (n_docs/total_len sums, avgdl =
    total_len/n_docs; per-term df = sum of each source's tombstone-
    corrected global df) and injected through _search_exhaustive's
    callable-scorer hook, so per-doc accumulation reproduces the merged
    engine's float expression order term for term — idf(n_union, df_union)
    · bm25_tf_part(tf, dl, avgdl_union, k1, b), summed in sorted-term
    order over a doc's single source.

    The federation story at scale: per-epoch / per-tenant indexes each
    keep their own lifecycle (append, delete, compact) while serving
    one query surface. It takes index (or alias) directories and opens
    one in-process QueryEngine over each; a ShardedQueryEngine pool
    cannot serve as a source (it has no ``_search_exhaustive``,
    ``_df_only``, ``doclens`` or ``term_postings``). Scoring is
    exhaustive by construction; a physical ``merge_indexes`` serves
    bmax as well, so it remains the throughput option when block-max
    pruning matters."""

    def __init__(self, index_dirs: list[str]):
        from .append import resolve_index_alias

        if len(index_dirs) < 2:
            raise ValueError("FederatedQueryEngine needs ≥2 indexes")
        self.engines = [QueryEngine(resolve_index_alias(d))
                        for d in index_dirs]
        base = self.engines[0]
        for e in self.engines[1:]:
            for key in ("k1", "b"):
                if getattr(e, key) != getattr(base, key):
                    raise ValueError(
                        f"federated sources disagree on {key}: "
                        f"{getattr(base, key)} vs {getattr(e, key)}")
        ids = np.concatenate([e.doclens.ids for e in self.engines])
        if len(np.unique(ids)) != len(ids):
            raise ValueError("federated sources share doc ids — the "
                             "merge_indexes disjointness contract")
        self.k1, self.b = base.k1, base.b
        # stats n_docs / total_len already exclude tombstoned rows
        # (delete_from_index updates them) — identical to the sums
        # merge_indexes writes
        self.n_docs = sum(int(e.stats["n_docs"]) for e in self.engines)
        self.total_len = sum(int(e.stats["total_len"])
                             for e in self.engines)
        self.avgdl = (self.total_len / self.n_docs) if self.n_docs else 0.0

    def _union_dfs(self, terms: list[str]) -> dict[str, int]:
        dfs = {t: 0 for t in terms}
        for e in self.engines:
            for t, d in e._df_only(terms).items():
                dfs[t] += d
        return dfs

    def search(self, query: str, k: int = 10) -> list[tuple[int, float]]:
        """Top-k over the union corpus (score desc, doc_id asc), scores
        bitwise equal to the physically merged index's."""
        from .build import idf as idf_fn
        from .codec import bm25_tf_part

        terms = sorted(set(clean_query(query)))
        if not terms:
            return []
        idf_map = {t: idf_fn(self.n_docs, d)
                   for t, d in self._union_dfs(terms).items() if d > 0}
        avgdl, k1, b = self.avgdl, self.k1, self.b

        def fed(tfs, dls, dfg, t):
            # identical expression order to the merged engine's
            # w * bm25_tf_part(...) accumulation (idf is the scalar w)
            return idf_map[t] * bm25_tf_part(tfs, dls, avgdl, k1, b)

        return _topk([e._search_exhaustive(terms, k, fed)
                      for e in self.engines], k)

    def explain(self, query: str, doc_id: int) -> dict:
        """Per-term breakdown under UNION stats for a doc in whichever
        source holds it — contributions sum to the federated search
        score bitwise (same closure, same accumulation order)."""
        from .build import idf as idf_fn
        from .codec import bm25_tf_part

        terms = sorted(set(clean_query(query)))
        owner = None
        for e in self.engines:
            pos = int(np.searchsorted(e.doclens.ids, doc_id))
            if pos < len(e.doclens.ids) and e.doclens.ids[pos] == doc_id:
                owner = e
                break
        if owner is None:
            raise KeyError(f"doc_id {doc_id} not in any federated source")
        dfs = self._union_dfs(terms)
        dl = np.array([owner.doclens.lookup_one(doc_id)], np.float64)
        out, total = [], 0.0
        for t in terms:
            ids, tfs = owner.term_postings(t)
            pos = int(np.searchsorted(ids, doc_id))
            if pos >= len(ids) or ids[pos] != doc_id or dfs[t] == 0:
                continue
            contrib = float(idf_fn(self.n_docs, dfs[t])
                            * bm25_tf_part(tfs[pos:pos + 1], dl,
                                           self.avgdl, self.k1, self.b)[0])
            out.append({"term": t, "tf": int(tfs[pos]), "df": int(dfs[t]),
                        "contribution": contrib})
            total = total + contrib
        return {"doc_id": doc_id, "score": total, "terms": out}



def _chain_earliest(packed_rest, cur, valid):
    """Greedy earliest-next packed-key chain (the sloppy-phrase /
    intervals / span_containing kernel): for each candidate start state
    (cur, valid), advance through every stream in ``packed_rest`` taking
    the FIRST key strictly greater than the running end. Earliest-next
    is end-minimal for a fixed start, so downstream minimal-span and
    widest-final constructions are exact. Invalid rows hold int64-max.
    Returns (cur, valid)."""
    big = np.iinfo(np.int64).max
    for pk in packed_rest:
        j = np.searchsorted(pk, cur, side="right")
        ok = valid & (j < len(pk))
        cur = np.where(ok, pk[np.minimum(j, len(pk) - 1)], big)
        valid = ok
    return cur, valid


_QS_TOKEN = re.compile(r'"[^"]*"(?:~\d+)?(?:\^\d+(?:\.\d+)?)?'
                       r'|\(|\)|[^\s()]+')
_QS_PHRASE = re.compile(r'"([^"]*)"(?:~(\d+))?(?:\^(\d+(?:\.\d+)?))?')
_QS_WORD = re.compile(r'([^\s()^*]+)(\*)?(?:\^(\d+(?:\.\d+)?))?')


def _parse_query_string(qs: str) -> tuple:
    """THE boolean query grammar (Lucene's classic ``query_string``;
    every boolean surface folds its tree) parsed into plain tuples:
    ("term", t, boost), ("prefix", p), ("phrase", terms, slop, boost),
    ("and", a, b), ("or", a, b), ("not", a). OR binds loosest, NOT
    tightest; a boost on a prefix is dropped (prefixes never score).
    Atoms are analyzed HERE, so a word that is not exactly one term (a
    stopword, a bare ``*``), an empty phrase, unbalanced parentheses
    and dangling or trailing operators raise ValueError up front."""
    toks = _QS_TOKEN.findall(qs)
    pos = 0

    def peek() -> str | None:
        return toks[pos] if pos < len(toks) else None

    def take() -> str:
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def atom() -> tuple:
        if peek() is None:
            raise ValueError(f"unexpected end of expression {qs!r}")
        t = take()
        if t == "(":
            v = or_expr()
            if peek() != ")":
                raise ValueError(f"expected ')' in {qs!r}")
            take()
            return v
        if t in (")", "AND", "OR", "NOT"):
            raise ValueError(f"unexpected {t!r} in {qs!r}")
        if t.startswith('"'):
            m = _QS_PHRASE.fullmatch(t)
            if m is None:
                raise ValueError(f"bad phrase atom {t!r}")
            terms = clean_query(m.group(1), max_tokens=None)
            if not terms:
                raise ValueError(f"phrase {t!r} normalizes to nothing")
            return ("phrase", tuple(terms), int(m.group(2) or 0),
                    float(m.group(3) or 1.0))
        m = _QS_WORD.fullmatch(t)
        if m is None:
            raise ValueError(f"bad atom {t!r}")
        terms = clean_query(m.group(1))
        if len(terms) != 1:
            raise ValueError(
                f"query word {m.group(1)!r} does not normalize to one term")
        if m.group(2):
            return ("prefix", terms[0])
        return ("term", terms[0], float(m.group(3) or 1.0))

    def not_expr() -> tuple:
        if peek() == "NOT":
            take()
            return ("not", not_expr())
        return atom()

    def and_expr() -> tuple:
        v = not_expr()
        while peek() == "AND":
            take()
            v = ("and", v, not_expr())
        return v

    def or_expr() -> tuple:
        v = and_expr()
        while peek() == "OR":
            take()
            v = ("or", v, and_expr())
        return v

    if not toks:
        raise ValueError("empty query string")
    out = or_expr()
    if pos != len(toks):
        raise ValueError(f"trailing tokens in {qs!r}")
    return out


def _fold_query(node: tuple, leaf, ops: dict, positive: bool = True):
    """Evaluate a ``_parse_query_string`` tree: ``leaf(node, positive)``
    values each atom, ``ops`` ("and", "or", "and_not", "not") combine.
    Leaves go left to right with ``positive`` flipped under each NOT
    (boost sums stay bitwise); ``x AND NOT y`` is and_not(x, y), never
    a complement of y."""
    kind = node[0]
    if kind == "not":
        return ops["not"](_fold_query(node[1], leaf, ops, not positive))
    if kind not in ("and", "or"):
        return leaf(node, positive)
    a = _fold_query(node[1], leaf, ops, positive)
    if kind == "and" and node[2][0] == "not":
        return ops["and_not"](
            a, _fold_query(node[2][1], leaf, ops, not positive))
    return ops[kind](a, _fold_query(node[2], leaf, ops, positive))


_SQS_TOKEN = re.compile(
    r'"[^"]*"(?:~\d+)?|\(|\)|\||\+|-|[^\s()|+\-][^\s()|+]*')


def simple_query_string_to_dsl(qs: str, default_operator: str = "or"
                               ) -> str | None:
    """Translate ES ``simple_query_string`` syntax into the Lucene
    query_string grammar search_query_string parses, with FAITHFUL
    Lucene SimpleQueryParser boolean semantics: at each parenthesis
    level, ``-``-negated clauses are MUST_NOT regardless of the
    surrounding operator — they hoist OUT of the positive expression
    ("a | b -c" → "( a OR b ) AND NOT ( c )") — and a level with no
    positive clause matches NOTHING (Lucene's only-MUST_NOT
    BooleanQuery), returned as None and propagated (None under AND
    poisons the level; under OR it drops out; a negated None exclusion
    excludes nothing). Positive clauses fold with ``+`` (AND, binds
    tighter) / ``|`` (OR) / the implicit ``default_operator``. Quoted
    phrases (``"..."~slop``) and trailing-``*`` prefixes pass through;
    ``^`` in a word is LITERAL TEXT in simple_query_string (never a
    boost) — it is stripped here exactly as the analyzer would strip
    it. Dangling trailing operators (``"foo -"``, ``"foo |"``,
    ``"foo +"``) are IGNORED — Lucene SimpleQueryParser leniency —
    while structural errors (unbalanced parens, empty atoms) still
    raise."""
    op = {"or": "OR", "and": "AND"}[default_operator.lower()]
    toks = _SQS_TOKEN.findall(qs)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def level() -> str | None:
        nonlocal pos
        positives: list[str | None] = []
        gaps: list[str] = []       # operator between positives i-1, i
        negatives: list[str] = []
        pending: str | None = None  # explicit op awaiting next clause
        neg = False
        while True:
            t = peek()
            if t is None or t == ")":
                break
            pos += 1
            if t == "|":
                pending = "OR"
                continue
            if t == "+":
                pending = "AND"
                continue
            if t == "-":
                neg = True
                continue
            if t == "(":
                sub = level()
                if peek() != ")":
                    raise ValueError(f"expected ')' in {qs!r}")
                pos += 1
                clause = None if sub is None else f"( {sub} )"
            else:
                if not t.startswith('"'):
                    t = t.replace("^", "")  # literal text, not a boost
                    if not t or t == "*":
                        raise ValueError(f"empty atom in {qs!r}")
                clause = t
            if neg:
                # MUST_NOT hoists; the operator before it is consumed
                # (Lucene attaches occur per clause, not per gap); a
                # match-nothing exclusion excludes nothing
                if clause is not None:
                    negatives.append(clause)
                neg = False
                pending = None
            else:
                gaps.append(pending or op)
                positives.append(clause)
                pending = None
        # fold positives: AND binds tighter than OR (the query_string
        # grammar's precedence); a None positive poisons its AND-run
        # (MUST of match-nothing) and drops from its OR (SHOULD of
        # match-nothing)
        runs: list[list[str | None]] = []
        for g, c in zip(gaps, positives):
            if g == "AND" and runs:
                runs[-1].append(c)
            else:
                runs.append([c])
        or_terms = [" AND ".join(r) for r in runs
                    if all(c is not None for c in r)]
        if not or_terms:
            expr = None
        elif len(or_terms) == 1:
            expr = or_terms[0]
        else:
            expr = " OR ".join(or_terms)
        if expr is None:
            return None  # only-MUST_NOT (or empty) level matches nothing
        for n in negatives:
            expr = f"( {expr} ) AND NOT ( {n} )"
        return expr

    if not toks:
        raise ValueError(f"empty simple_query_string {qs!r}")
    out = level()
    if peek() is not None:
        raise ValueError(f"unbalanced ')' in {qs!r}")
    return out
