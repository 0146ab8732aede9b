"""Tokenization with the reference's exact cleaning semantics.

Replicates (see SURVEY.md §2.2 M2-M4):

- ``cleanString`` — /root/reference/dataprocess/cleaners.py:30-35:
  strip HTML tags, drop every char outside ``[a-zA-Z0-9 \\n]``, lowercase.
- ``cleanQuery`` — /root/reference/dataprocess/cleaners.py:38-41:
  regex-clean, lowercase, whitespace-split, drop NLTK English stopwords.

Two implementations with identical results:

- pure-Python scalar functions (``clean_string`` / ``clean_query``) used on
  the query side and as the oracle for tests;
- a vectorized Arrow batch tokenizer (``tokenize_batch`` /
  ``term_frequencies``) built on ``pyarrow.compute`` C++ kernels
  (regex replace, lower, whitespace split, is_in) plus NumPy for the
  per-doc term-frequency aggregation — zero Python per-row work. This is
  the hot path of the index build.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from html.parser import HTMLParser
from io import StringIO

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .stopwords import ENGLISH_STOPWORD_SET

# Exact pattern from /root/reference/dataprocess/cleaners.py:34,39.
CLEAN_PATTERN = "[^a-zA-Z0-9 \n]+"
_CLEAN_RE = re.compile(CLEAN_PATTERN)

# THE suffix-stemmer rule set (ing/ed/s, ≥3-char stems), applied in
# order. Single source of truth for the scalar tokenizer path
# (registry.suffix_stem_tokenizer), the vectorized Arrow index path
# (pipelines/documents._stem_flat) and the DuckDB oracle
# (pipelines/sql.stemmed_topk_sql embeds the same patterns) — all
# RE2-compatible, pinned token-for-token by tests.
STEM_RULES = ((r"^([a-z0-9]{3,})ing$", r"\1"),
              (r"^([a-z0-9]{3,})ed$", r"\1"),
              (r"^([a-z0-9]{3,}[a-rt-z0-9])s$", r"\1"))


def stem_token(t: str) -> str:
    for pat, rep in STEM_RULES:
        t = re.sub(pat, rep, t)
    return t

_STOPWORD_ARRAY = pa.array(sorted(ENGLISH_STOPWORD_SET), type=pa.string())


class _MLStripper(HTMLParser):
    """HTML → text, as /root/reference/dataprocess/cleaners.py:9-27.

    Provenance: this is the canonical PUBLIC stdlib-HTMLParser
    strip-tags recipe (widely circulated since ~2009, e.g. the
    long-standing Stack Overflow answer to "Strip HTML from strings in
    Python", Q753052) which the reference itself uses verbatim.
    Reproduced here from that public recipe — not from the reference —
    because conformance parity (M1) requires byte-identical stripping
    semantics."""

    def __init__(self) -> None:
        super().__init__()
        self.reset()
        self.strict = False
        self.convert_charrefs = True
        self.text = StringIO()

    def handle_data(self, d: str) -> None:
        self.text.write(d)

    def get_data(self) -> str:
        return self.text.getvalue()


def strip_tags(html: str) -> str:
    s = _MLStripper()
    s.feed(html)
    return s.get_data()


def clean_string(to_clean: str | None, *, strip_html: bool = False) -> str | None:
    """Reference ``cleanString`` (cleaners.py:30-35). None/"" pass through.

    ``strip_html`` defaults to False: the corpus is source code, not HTML;
    pass True for reference-parity on HTML-ish content (M1).
    """
    if not to_clean:
        return to_clean
    if strip_html:
        to_clean = strip_tags(to_clean)
    return _CLEAN_RE.sub("", to_clean).lower()


def clean_query(to_clean: str, max_tokens: int | None = None) -> list[str]:
    """Reference ``cleanQuery`` (cleaners.py:38-41). THE tokenizer.

    regex-drop non ``[a-zA-Z0-9 \\n]`` → lowercase → whitespace split →
    drop English stopwords. Both the index build and the query side use
    exactly this.

    ``max_tokens`` replicates ``Post.toWordsArray(limit=16)``
    (/root/reference/dataprocess/models.py:54-61, hparams.py:26): the
    reference truncates AFTER stopword removal. The engine indexes full
    content by default (the cap was a model-input constraint, SURVEY.md
    M4); the knob exists for parity tests.
    """
    cleaned = _CLEAN_RE.sub("", to_clean).lower()
    toks = [w for w in cleaned.split() if w not in ENGLISH_STOPWORD_SET]
    return toks[:max_tokens] if max_tokens is not None else toks


def tokenize_array(content: pa.Array | pa.ChunkedArray,
                   max_tokens: int | None = None
                   ) -> tuple[pa.Array, np.ndarray, np.ndarray]:
    """Vectorized ``clean_query`` over a string column.

    Returns ``(flat_tokens, doc_idx, doc_lens)``:

    - ``flat_tokens``: StringArray of all surviving (non-stopword) tokens,
      concatenated across documents in order;
    - ``doc_idx``: int64 ndarray aligned with ``flat_tokens`` giving the
      0-based row index within the batch each token came from;
    - ``doc_lens``: int64 ndarray of per-row surviving token counts
      (the BM25 document length). Null/empty content → 0.
    """
    if isinstance(content, pa.ChunkedArray):
        content = content.combine_chunks()
    n = len(content)
    # post-regex the string is pure ASCII, so ascii_lower ≡ utf8_lower
    # (verified) and ~14x faster
    cleaned = pc.ascii_lower(pc.replace_substring_regex(content, CLEAN_PATTERN, ""))
    # likewise ascii_split_whitespace ≡ utf8_split_whitespace here; the
    # UTF-8 kernel also sometimes keeps the whitespace that ends the
    # last string of a sliced batch inside a token (tests/test_text.py)
    tokens = pc.ascii_split_whitespace(cleaned)
    tokens = tokens.combine_chunks() if isinstance(tokens, pa.ChunkedArray) else tokens
    # Null rows → empty token lists so offsets stay monotone.
    tokens = tokens.fill_null([])
    flat = tokens.flatten()
    offsets = tokens.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    counts = np.diff(offsets)
    doc_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
    # the split emits '' for empty input strings; drop those and stopwords.
    keep_np = np.asarray(
        pc.and_(
            pc.invert(pc.is_in(flat, value_set=_STOPWORD_ARRAY)),
            pc.not_equal(flat, ""),
        )
    )
    flat = flat.filter(pa.array(keep_np))
    doc_idx = doc_idx[keep_np]
    if max_tokens is not None and len(doc_idx):
        # per-doc position of each surviving token; cap post-stopword (M4)
        starts = np.flatnonzero(np.diff(np.concatenate(([-1], doc_idx))))
        pos = np.arange(len(doc_idx)) - np.repeat(
            np.arange(len(doc_idx))[starts],
            np.diff(np.concatenate((starts, [len(doc_idx)]))))
        cap = pos < max_tokens
        flat = flat.filter(pa.array(cap))
        doc_idx = doc_idx[cap]
    doc_lens = np.bincount(doc_idx, minlength=n).astype(np.int64)
    return flat, doc_idx, doc_lens


@dataclass
class BatchTermFreqs:
    """Per-(row, term) frequencies for one Arrow batch, plus doc lengths."""

    doc_idx: np.ndarray  # int64, row index within batch, one per (row, term) pair
    terms: pa.Array      # string, the term of each pair
    tf: np.ndarray       # int64 term frequency of each pair
    doc_lens: np.ndarray  # int64 per-row surviving token count
    codes: np.ndarray    # int64 per-pair index into vocab
    vocab: pa.Array      # string, distinct terms of the batch


def term_frequencies(content: pa.Array | pa.ChunkedArray) -> BatchTermFreqs:
    """Tokenize a batch and aggregate to (row, term) → tf. Fully vectorized:

    tokens are dictionary-encoded (C++ hash), then (row, term_code) pairs
    are counted with ``np.unique`` on a packed int64 key.
    """
    flat, doc_idx, doc_lens = tokenize_array(content)
    if len(flat) == 0:
        return BatchTermFreqs(
            doc_idx=np.empty(0, dtype=np.int64),
            terms=pa.array([], type=pa.string()),
            tf=np.empty(0, dtype=np.int64),
            doc_lens=doc_lens,
            codes=np.empty(0, dtype=np.int64),
            vocab=pa.array([], type=pa.string()),
        )
    dict_arr = flat.dictionary_encode()
    codes = np.asarray(dict_arr.indices).astype(np.int64)
    vocab = dict_arr.dictionary
    # Pack (doc, term) into one int64: doc_idx < 2^31 per batch, codes < 2^31.
    key = doc_idx * len(vocab) + codes
    uniq, counts = np.unique(key, return_counts=True)
    pair_doc = uniq // len(vocab)
    pair_code = uniq % len(vocab)
    terms = vocab.take(pa.array(pair_code, type=pa.int64()))
    return BatchTermFreqs(
        doc_idx=pair_doc,
        terms=terms,
        tf=counts.astype(np.int64),
        doc_lens=doc_lens,
        codes=pair_code,
        vocab=vocab,
    )
