"""Seeded corpus and query-stream generator for the benchmark.

One seed fixes everything: the identifier vocabulary, the documents
(schema ``repo, path, commit, lang, content``), a disjoint-id delta
batch for appends, a second one for the traced run's append probe, a
sample of documents to delete, and the query
streams of the serving workloads. The same seed gives byte-identical
parquet files.

Content shape:

- hot code keywords (``def``, ``self``, ...) on 45% of the tokens, so
  a few terms occur in most documents;
- identifiers drawn from a Zipf distribution over a large syllable
  vocabulary, so real tail terms exist and block-max pruning can pay;
- log-normal document lengths (coefficient of variation >= 0.8, the
  engine's condition for routing near-uniform hot queries to bmax).

Write a corpus and print its file digests::

    python3 perfbench/corpus.py --seed 7 --docs 20000 --out /path/to/dir
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SCHEMA = pa.schema([("repo", pa.string()), ("path", pa.string()),
                    ("commit", pa.string()), ("lang", pa.string()),
                    ("content", pa.string())])

# none of these is an English stopword, so each survives tokenization
HOT = ("def", "self", "return", "import", "class", "none", "print", "len",
       "true", "false", "lambda", "yield", "async", "await", "static",
       "public", "void", "const", "var", "func", "int", "string", "struct",
       "new")
_CONS = "bcdfghklmnprstvz"
_VOWS = "aeiou"
_SUFFIX = np.array(["", "", "", "", "", "", "", ",", ":", "()"], dtype=object)
_EXTS = ((".py", "python"), (".js", "javascript"), (".go", "go"),
         (".java", "java"))

HOT_SHARE = 0.45
VOCAB = 30_000
DELTA_SHARE = 0.05    # docs appended, as a share of the corpus
DELETE_SHARE = 0.01   # docs deleted
ZIPF_A = 1.25
LEN_MU, LEN_SIGMA = 4.0, 0.95
LEN_MIN, LEN_MAX = 4, 4000


@dataclass
class Corpus:
    table: pa.Table             # base documents
    delta: pa.Table             # disjoint-id documents for one append
    probe: pa.Table             # another such batch, for the layer probe
    delete_rows: np.ndarray     # row indices into ``table`` to delete
    term_df: dict[str, int]     # document frequency of every base term
    doclen_cv: float
    digests: list[str] = field(default_factory=list)


def _vocab(rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` distinct 3- and 4-syllable identifiers, in draw order."""
    syl = np.array([c + v for c in _CONS for v in _VOWS], dtype=object)
    hot = set(HOT)
    out: dict[str, None] = {}
    while len(out) < size:
        n = rng.integers(3, 5, size=size)
        picks = rng.integers(0, len(syl), size=(size, 4))
        for k, row in zip(n, picks):
            w = "".join(syl[row[:k]])
            if w not in hot:
                out[w] = None
                if len(out) == size:
                    break
    return np.array(list(out), dtype=object)


def _zipf_ranks(rng: np.random.Generator, n: int, vmax: int) -> np.ndarray:
    """Zipf(``ZIPF_A``) ranks truncated to [0, vmax) by redrawing, so the
    tail is not piled onto the last rank."""
    out = rng.zipf(ZIPF_A, size=n)
    bad = np.flatnonzero(out > vmax)
    while len(bad):
        out[bad] = rng.zipf(ZIPF_A, size=len(bad))
        bad = bad[out[bad] > vmax]
    return out - 1


def _docs(rng: np.random.Generator, vocab: np.ndarray, n_docs: int,
          first_row: int, tag: str) -> tuple[pa.Table, np.ndarray,
                                             np.ndarray]:
    """Return (table, per-token word ids, per-doc lengths). Word ids
    below len(HOT) are hot keywords; the rest index ``vocab``."""
    lens = np.clip(rng.lognormal(LEN_MU, LEN_SIGMA, n_docs), LEN_MIN, LEN_MAX)
    # rescale to a fixed total, so every seed yields the same token count
    target = n_docs * np.exp(LEN_MU + LEN_SIGMA ** 2 / 2)
    lens = np.clip(np.rint(lens * target / lens.sum()).astype(np.int64),
                   LEN_MIN, LEN_MAX)
    tot = int(lens.sum())
    hot_w = 1.0 / np.arange(1, len(HOT) + 1) ** 0.5
    hot_ids = rng.choice(len(HOT), size=tot, p=hot_w / hot_w.sum())
    ident = _zipf_ranks(rng, tot, len(vocab)) + len(HOT)
    wid = np.where(rng.random(tot) < HOT_SHARE, hot_ids, ident)
    words = np.concatenate((np.array(HOT, dtype=object), vocab))
    seps = np.where(rng.random(tot) < 0.12, "\n", " ").astype(object)
    toks = words[wid] + _SUFFIX[rng.integers(0, len(_SUFFIX), size=tot)] + seps
    ends = np.cumsum(lens)
    starts = ends - lens
    # every token ends in one separator; the last one is dropped, since
    # the tokenizer can keep the whitespace that ends the last string of
    # an Arrow batch (a rare, memory-dependent flake) as part of a token
    content = ["".join(toks[s:e])[:-1] for s, e in zip(starts, ends)]
    rows = np.arange(first_row, first_row + n_docs)
    ext = [_EXTS[r % len(_EXTS)] for r in rows]
    table = pa.table({
        "repo": [f"org{r % 13}/{tag}{r % 97}" for r in rows],
        "path": [f"{tag}/pkg{r % 31}/mod{r}{e}" for r, (e, _) in zip(rows, ext)],
        "commit": [hashlib.sha1(f"{tag}{r}".encode()).hexdigest() for r in rows],
        "lang": [lg for _, lg in ext],
        "content": content,
    }, schema=SCHEMA)
    return table, wid, lens


def generate(seed: int, n_docs: int) -> Corpus:
    rng = np.random.default_rng(seed)
    vocab = _vocab(rng, VOCAB)
    table, wid, lens = _docs(rng, vocab, n_docs, 0, "src")
    delta, _, _ = _docs(rng, vocab, max(1, int(n_docs * DELTA_SHARE)),
                        n_docs, "delta")
    # every k-th doc in length order, from a seeded offset: the deleted
    # docs' lengths, and so the cost of deleting them, match every seed
    k = round(1 / DELETE_SHARE)
    by_len = np.argsort(lens, kind="stable")
    delete_rows = np.sort(by_len[int(rng.integers(0, k))::k])
    # document frequency per word id: unique (doc, word) pairs
    doc = np.repeat(np.arange(n_docs, dtype=np.int64), lens)
    pairs = np.unique(doc * (len(vocab) + len(HOT)) + wid)
    ids, dfs = np.unique(pairs % (len(vocab) + len(HOT)), return_counts=True)
    words = np.concatenate((np.array(HOT, dtype=object), vocab))
    term_df = dict(zip(words[ids].tolist(), dfs.tolist()))
    cv = float(lens.std() / lens.mean())
    if cv < 0.8:
        raise ValueError(f"doc-length CV {cv:.3f} < 0.8 for seed {seed}")
    probe, _, _ = _docs(rng, vocab, delta.num_rows, n_docs + delta.num_rows,
                        "probe")
    return Corpus(table, delta, probe, delete_rows, term_df, cv)


def write(corpus: Corpus, out_dir: str, n_files: int) -> list[str]:
    """Write the base corpus as ``n_files`` parquet files plus
    ``delta.parquet`` and ``probe.parquet``; record each file's sha256
    in ``corpus.digests``."""
    os.makedirs(os.path.join(out_dir, "base"), exist_ok=True)
    paths = []
    step = -(-corpus.table.num_rows // n_files)
    parts = [(os.path.join(out_dir, "base", f"part-{i:03d}.parquet"),
              corpus.table.slice(i * step, step)) for i in range(n_files)]
    parts.append((os.path.join(out_dir, "delta.parquet"), corpus.delta))
    parts.append((os.path.join(out_dir, "probe.parquet"), corpus.probe))
    corpus.digests = []
    for path, t in parts:
        buf = io.BytesIO()
        pq.write_table(t, buf)
        data = buf.getvalue()
        with open(path, "wb") as f:
            f.write(data)
        corpus.digests.append(hashlib.sha256(data).hexdigest())
        paths.append(path)
    return paths


# ---------------------------------------------------------------- queries

def _pick(rng: np.random.Generator, pool: list[str], n: int) -> list[str]:
    return [pool[i] for i in rng.choice(len(pool), size=n, replace=False)]


# The serve_hot shapes are the five of scripts/scorer_shootout.py, in
# equal shares as that script times them; their shares in real traffic
# are not known. The shoot-out's hot2 is a near-uniform hot query of
# 200-390k postings, which the auto router sends to bmax; on this
# 20k-doc corpus a query needs 7 hot keywords to reach the router's 100k
# postings threshold, so "hot" here is the top keyword and 7 of the next
# 8, at least 110k postings for every seed.
HOT_SHAPES = ("hot", "hot+rare", "rare2", "hot3+rare", "mid2")


def hot_queries(corpus: Corpus, seed: int, n: int = 300) -> list[str]:
    """The fixed serve_hot query set, cycling through ``HOT_SHAPES``.
    Every shape with a hot keyword holds the top one, and others come
    from the next 8; "rare" terms have df <= 8 and "mid" terms df
    100-2000."""
    rng = np.random.default_rng([seed, 1])
    df = corpus.term_df
    idents = [t for t in df if t not in HOT]
    rare = sorted(t for t in idents if df[t] <= 8)
    mid = sorted(t for t in idents if 100 <= df[t] <= 2000)
    top, others = HOT[0], list(HOT[1:9])
    out = []
    for i in range(n):
        shape = HOT_SHAPES[i % len(HOT_SHAPES)]
        if shape == "hot":
            q = [top] + _pick(rng, others, 7)
        elif shape == "hot+rare":
            q = [top] + _pick(rng, rare, 1)
        elif shape == "rare2":
            q = _pick(rng, rare, 2)
        elif shape == "hot3+rare":
            q = [top] + _pick(rng, others, 2) + _pick(rng, rare, 1)
        else:
            q = _pick(rng, mid, 2)
        out.append(" ".join(q))
    return out


# The serve_es mix: per 20 bodies one bool, one fuzzy, one prefix and 17
# match. The shares are an assumption, not measured traffic. es_p90_ms depends on them: fuzzy costs about twice
# a match, and at 5% of bodies it stays above the 90th percentile.
ES_MIX_PERIOD = 20


def es_bodies(corpus: Corpus, seed: int, n: int) -> list[tuple[str, dict, list[str]]]:
    """``n`` ES ``_search`` bodies whose terms are pairwise disjoint:
    mostly ``match`` (two terms), plus one-level ``bool``, ``fuzzy`` (one
    substituted letter) and ``prefix`` (a term minus its last letter).
    Returns (kind, body, terms) triples."""
    rng = np.random.default_rng([seed, 2])
    df = corpus.term_df
    # a narrow df band keeps the number of segment files a request
    # touches, and so its cost, similar across requests and seeds
    pool = sorted(t for t in df if t not in HOT and 3 <= df[t] <= 6)
    need = 2 * n
    if len(pool) < need:
        raise ValueError(f"only {len(pool)} fresh terms for {n} ES bodies")
    terms = _pick(rng, pool, need)
    out = []
    for i in range(n):
        a, b = terms[2 * i], terms[2 * i + 1]
        r = i % ES_MIX_PERIOD
        if r == 0:
            body = {"query": {"bool": {"must": [{"match": {"content": a}}],
                                       "should": [{"match": {"content": b}}]}}}
            out.append(("bool", body, [a, b]))
        elif r == 1:
            j = int(rng.integers(1, len(a)))
            c = _VOWS[(_VOWS.index(a[j]) + 1) % 5] if a[j] in _VOWS else a[j]
            typo = a[:j] + c + a[j + 1:] if c != a[j] else a[:j] + "x" + a[j + 1:]
            body = {"query": {"fuzzy": {"content": {"value": typo}}}}
            out.append(("fuzzy", body, [a]))
        elif r == 2:
            body = {"query": {"prefix": {"content": a[:-1]}}}
            out.append(("prefix", body, [a]))
        else:
            body = {"query": {"match": {"content": f"{a} {b}"}}}
            out.append(("match", body, [a, b]))
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--docs", type=int, default=20_000)
    p.add_argument("--files", type=int, default=8)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    c = generate(args.seed, args.docs)
    for path, digest in zip(write(c, args.out, args.files), c.digests):
        print(digest, path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
