"""Text-analysis operators for training-data pipelines: token counting,
quality scoring, language-ID heuristic, document fingerprinting.

All are vectorized ``map_batches`` stages over ``batch_format="pyarrow"``;
each has a ``queries()`` entry in __ray_entry__.py (token/quality ops also
have DuckDB SQL oracles; langid/fingerprint are rows-only checks).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..micros import to_micros
from ..text import CLEAN_PATTERN, tokenize_array
from ..stopwords import ENGLISH_STOPWORD_SET

_STOP_ARR = pa.array(sorted(ENGLISH_STOPWORD_SET), type=pa.string())


def _all_tokens(content: pa.Array) -> tuple[pa.ListArray, np.ndarray]:
    """Cleaned whitespace tokens per row BEFORE stopword drop (list array +
    per-row counts, '' removed)."""
    cleaned = pc.ascii_lower(pc.replace_substring_regex(content, CLEAN_PATTERN, ""))
    toks = pc.ascii_split_whitespace(cleaned)  # pure ASCII post-regex
    toks = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
    toks = toks.fill_null([])
    flat = toks.flatten()
    offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    nonempty = pc.not_equal(flat, "")
    counts_all = np.diff(offsets)
    doc_idx = np.repeat(np.arange(len(toks), dtype=np.int64), counts_all)
    ne = np.asarray(nonempty)
    total = np.bincount(doc_idx[ne], minlength=len(toks)).astype(np.int64)
    return toks, total


def token_stats_batch(batch: pa.Table, text_col: str = "text",
                      id_col: str = "doc_id") -> pa.Table:
    """Per-doc: total cleaned tokens, kept (non-stopword) tokens,
    stopword_ratio (micros, int64 — float-stable for the SQL oracle)."""
    content = batch[text_col].combine_chunks()
    _, total = _all_tokens(content)
    _, _, kept = tokenize_array(content)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(total > 0, 1.0 - kept / np.maximum(total, 1), 0.0)
    return pa.table({
        "doc_id": batch[id_col].combine_chunks(),
        "n_tokens": total,
        "n_kept": kept,
        "stopword_ratio_micros": to_micros(ratio),
    })


# ---- language-ID heuristic (rows-only oracle) ----

# Tiny public high-frequency function-word lists per language.
LANG_MARKERS: dict[str, frozenset[str]] = {
    "en": frozenset("the of and to in is that it for on with as are this be at by".split()),
    "de": frozenset("der die das und ist nicht mit ein eine zu den von im auf für".split()),
    "fr": frozenset("le la les et de un une est pas pour dans que sur avec du".split()),
    "es": frozenset("el la los las y de un una es no por para con en que se del".split()),
    "zh": frozenset(),  # no latin function words — falls through to 'und'
}


class LangIdScorer:
    """Actor-pool stage: marker sets built once per actor (__init__), scored
    per batch — the stateful-stage pattern (SURVEY.md §2.3)."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        self.text_col = text_col
        self.id_col = id_col
        self.langs = sorted(k for k, v in LANG_MARKERS.items() if v)
        self.marker_arrs = {k: pa.array(sorted(LANG_MARKERS[k])) for k in self.langs}

    def __call__(self, batch: pa.Table) -> pa.Table:
        content = batch[self.text_col].combine_chunks()
        toks, total = _all_tokens(content)
        flat = toks.flatten()
        offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(toks)
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
        scores = np.zeros((n, len(self.langs)), dtype=np.float64)
        for j, lang in enumerate(self.langs):
            hit = np.asarray(pc.is_in(flat, value_set=self.marker_arrs[lang]))
            scores[:, j] = np.bincount(doc_idx[hit], minlength=n)
        denom = np.maximum(total, 1).astype(np.float64)
        scores = scores / denom[:, None]
        best = np.argmax(scores, axis=1)
        best_score = scores[np.arange(n), best]
        pred = np.where(best_score > 0.0,
                        np.array(self.langs, dtype=object)[best], "und")
        return pa.table({
            "doc_id": batch[self.id_col].combine_chunks(),
            "lang_pred": pa.array(list(pred), type=pa.string()),
            "lang_score_micros": to_micros(best_score),
        })


# ---- document fingerprint: rolling (Rabin-Karp) hash over kept tokens ----

_FP_BASE = np.uint64(1099511628211)
_FP_SEED = np.uint64(14695981039346656037)


def fingerprint_batch(batch: pa.Table, text_col: str = "text",
                      id_col: str = "doc_id") -> pa.Table:
    """Order-sensitive 64-bit rolling fingerprint of each doc's kept-token
    stream: fp = (SEED + Σ md5_low64(tok_i)·BASE^i) mod 2⁶⁴. Token hash
    is md5-low64 (== DuckDB md5_number_lower) and the position powers
    wrap in uint64 — both replicable in SQL, so the driver entry has an
    exact oracle. Vectorized per batch."""
    from .dedup import md5_low64

    content = batch[text_col].combine_chunks()
    flat, doc_idx, doc_lens = tokenize_array(content)
    n = len(content)
    fp = np.full(n, _FP_SEED, dtype=np.uint64)
    if len(flat):
        from .dedup import md5_low64_arrow

        tok_hash = md5_low64_arrow(flat)
        # position within doc → power via a cumulative-product table
        # (BASE^p mod 2⁶⁴) gathered by position, not per-element np.power
        starts = np.concatenate(([0], np.cumsum(doc_lens)))[:-1]
        pos = np.arange(len(tok_hash), dtype=np.int64) - starts[doc_idx]
        maxp = int(pos.max())
        table = np.empty(maxp + 1, dtype=np.uint64)
        table[0] = np.uint64(1)
        with np.errstate(over="ignore"):
            if maxp:
                np.multiply.accumulate(
                    np.full(maxp, _FP_BASE, dtype=np.uint64), out=table[1:])
            contrib = tok_hash * table[pos]
            # per-doc segment sums (tokens are doc-contiguous)
            bounds = np.concatenate(([0],
                                     np.flatnonzero(np.diff(doc_idx)) + 1))
            fp[doc_idx[bounds]] += np.add.reduceat(contrib, bounds)
    return pa.table({
        "doc_id": batch[id_col].combine_chunks(),
        "fingerprint": fp.astype(np.int64),  # two's-complement view
        "doc_len": doc_lens,
    })


# GPT-2-style pre-tokenizer pattern, lookahead-free so RE2 (pyarrow AND
# DuckDB) count it identically — "BPE-ish" token budgeting for training
# pipelines where exact tokenizer parity is out of reach but counts
# must be deterministic and cheap (one C++ regex pass per batch)
BPE_ISH_PATTERN = r"'(?:s|t|re|ve|m|ll|d)| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+"


def bpe_token_counts_batch(batch: pa.Table, text_col: str = "text",
                           id_col: str = "doc_id") -> pa.Table:
    """(doc_id, n_bpe_tokens): non-overlapping BPE_ISH_PATTERN match
    count per document — vectorized pc.count_substring_regex, zero
    Python per row."""
    content = batch[text_col].combine_chunks()
    n = pc.count_substring_regex(content, BPE_ISH_PATTERN)
    return pa.table({
        "doc_id": batch[id_col].combine_chunks(),
        "n_bpe_tokens": pc.fill_null(n.cast(pa.int64()), 0),
    })
