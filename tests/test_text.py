"""Tokenizer parity with the reference's cleanString/cleanQuery
(/root/reference/dataprocess/cleaners.py:30-41) — golden vectors from
FIXTURES.md F3, plus vectorized-vs-scalar equivalence."""

import numpy as np
import pyarrow as pa

from stacksearch_ray.text import (
    clean_query,
    clean_string,
    term_frequencies,
    tokenize_array,
)

# Golden tokenizations of the reference query set (FIXTURES.md F3).
GOLDEN = {
    "Determine a user's timezone": ["determine", "users", "timezone"],
    "Converting ARBG to RGB alpha blending": ["converting", "arbg", "rgb", "alpha", "blending"],
    "Regex: To pull out a sub-string between two tags in a string": [
        "regex", "pull", "substring", "two", "tags", "string"],
    "ASP.Net Custom Client-Side Validation": ["aspnet", "custom", "clientside", "validation"],
    "What are the preferred versions of Vim and Emacs on Mac OS X": [
        "preferred", "versions", "vim", "emacs", "mac", "os", "x"],
    "Normalizing a Table with Low Integrity": ["normalizing", "table", "low", "integrity"],
    "What is the best way to store connection string in .NET DLLs?": [
        "best", "way", "store", "connection", "string", "net", "dlls"],
    "What are the advantages of using SVN over CVS": ["advantages", "using", "svn", "cvs"],
    "i have a pen i have an apple": ["pen", "apple"],
    "numpy python": ["numpy", "python"],
    "please work": ["please", "work"],
    "maple story good game": ["maple", "story", "good", "game"],
}


def test_clean_string_semantics():
    assert clean_string("Hello, World! x=1;") == "hello world x1"
    assert clean_string("") == ""
    assert clean_string(None) is None
    assert clean_string("a\nb") == "a\nb"
    # HTML stripping only when requested (M1)
    assert clean_string("<p>Hi &amp; bye</p>", strip_html=True) == "hi  bye"
    assert clean_string("<p>Hi</p>") == "phip"


def test_clean_query_golden():
    for q, expected in GOLDEN.items():
        assert clean_query(q) == expected, q


def test_clean_query_stopwords_after_regex():
    # "don't" → regex → "dont", which is NOT in the stopword set (the raw
    # set contains "don't"/"don" but not "dont") — reference behavior.
    assert clean_query("don't stop") == ["dont", "stop"]
    assert clean_query("don t stop") == ["stop"]


def test_tokenize_array_matches_scalar():
    docs = list(GOLDEN.keys()) + ["", None, "the a of", "x " * 500]
    arr = pa.array(docs, type=pa.string())
    flat, doc_idx, doc_lens = tokenize_array(arr)
    toks = flat.to_pylist()
    for i, doc in enumerate(docs):
        mine = [toks[j] for j in np.flatnonzero(doc_idx == i)]
        expected = clean_query(doc) if doc else []
        assert mine == expected, doc
        assert doc_lens[i] == len(expected)



def test_tokenize_sliced_whitespace_terminated_batches():
    """Sliced batches whose strings END in whitespace must never yield a
    token holding that whitespace (the UTF-8 split kept a trailing
    ' '/'\n' in a token on a few of these slices, e.g. 'new ')."""
    rng = np.random.default_rng(0)
    words = np.array(["new", "merge", "sort", "def", "self", "x1"],
                     dtype=object)
    docs = []
    for _ in range(2000):
        n = int(rng.integers(1, 12))
        seps = rng.choice([" ", "\n"], size=n)
        docs.append("".join(w + s for w, s in zip(rng.choice(words, n), seps)))
    arr = pa.array(docs, pa.string())
    for _ in range(4000):
        off = int(rng.integers(0, len(docs) - 1))
        part = arr.slice(off, int(rng.integers(1, 64)))
        flat, _, lens = tokenize_array(part)
        toks = flat.to_pylist()
        assert not [t for t in toks if t != t.strip() or " " in t], (off, toks)
        assert lens.tolist() == [len(clean_query(d))
                                 for d in part.to_pylist()]

def test_term_frequencies():
    arr = pa.array(["b ax b ax b", "the the the", None, "z"])
    tf = term_frequencies(arr)
    pairs = {(int(d), t): int(c) for d, t, c in zip(tf.doc_idx, tf.terms.to_pylist(), tf.tf)}
    assert pairs == {(0, "ax"): 2, (0, "b"): 3, (3, "z"): 1}
    assert tf.doc_lens.tolist() == [5, 0, 0, 1]


def test_term_frequencies_empty_batch():
    tf = term_frequencies(pa.array([], type=pa.string()))
    assert len(tf.doc_idx) == 0 and len(tf.doc_lens) == 0
    tf = term_frequencies(pa.array(["the of a"]))
    assert len(tf.doc_idx) == 0 and tf.doc_lens.tolist() == [0]
