"""Trigram content index: substring/regex search == brute-force scan.

The contract is EXACTNESS: trigram candidate pruning may only remove
docs that cannot match (necessary-condition AND), and the verify pass
removes every false positive — so for any pattern, pruned or full-scan,
the result equals a Python scan of the raw text.
"""

import random
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def tri(ray_session, tmp_path_factory):
    from stacksearch_ray.trigram import TrigramSearcher, build_trigram_index

    idx = str(tmp_path_factory.mktemp("tri") / "index")
    build_trigram_index(f"{SF_DIR}/documents.parquet", idx,
                        content_col="text", id_col="doc_id",
                        num_shards=4)
    return TrigramSearcher(idx)


@pytest.fixture(scope="module")
def corpus():
    t = pq.read_table(f"{SF_DIR}/documents.parquet",
                      columns=["doc_id", "text"])
    return dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))


def _expect_substring(corpus, pat):
    return {d: s.count(pat) for d, s in corpus.items() if pat in s}


def _got(table):
    cols = table.column_names
    return dict(zip(table[cols[0]].to_pylist(), table[cols[1]].to_pylist()))


def test_substring_random_patterns(tri, corpus):
    rng = random.Random(7)
    texts = list(corpus.values())
    pats = set()
    for _ in range(25):  # slices of real docs → guaranteed hits
        s = rng.choice(texts)
        n = rng.randint(3, 14)
        i = rng.randint(0, max(0, len(s) - n))
        pats.add(s[i:i + n])
    pats |= {"zzq", "merge sortx", "rt ba", "batch batch batch",
             "a" * 20}
    for pat in sorted(pats):
        got = _got(tri.search_substring(pat))
        assert got == _expect_substring(corpus, pat), pat


def test_substring_short_pattern_full_scan(tri, corpus):
    for pat in ("a", "zz", " b"):
        got = _got(tri.search_substring(pat))
        assert tri.last_plan["mode"] == "scan"
        assert got == _expect_substring(corpus, pat), pat


def test_substring_prunes(tri, corpus):
    got = _got(tri.search_substring("w dup"))
    assert tri.last_plan["mode"] == "pruned"
    assert len(got) <= tri.last_plan["n_candidates"] < len(corpus)
    assert got == _expect_substring(corpus, "w dup")


def test_absent_trigram_is_free(tri):
    t = tri.search_substring("qqqxyz")
    assert t.num_rows == 0
    # a trigram absent from the term_dict short-circuits: no postings read
    assert tri.last_plan == {"mode": "pruned", "n_probed": 0,
                             "n_candidates": 0}


REGEXES = [
    r"batch( batch)+",                  # group quantifier → literal 'batch'
    r"stream (big|small) (sort|join)",  # required 'stream '
    r"merge sort[a-z ]*join",           # class breaks the run
    r"a|b",                             # top-level alternation → full scan
    r"me[rl]ge",                        # no ≥3-char literal → full scan
    r"\bwindow dup$",                   # anchors + escape
    r"(join ){2}",
    r"nomatchzzz[0-9]+",
    r"du[pq]",
]


def test_regex_suite(tri, corpus):
    for pat in REGEXES:
        rx = re.compile(pat)
        got = _got(tri.search_regex(pat))
        exp = {d: len(rx.findall(s)) for d, s in corpus.items()
               if rx.search(s)}
        assert got == exp, pat


def test_regex_fallback_modes(tri):
    from stacksearch_ray.trigram import required_literals

    tri.search_regex(r"a|b")
    assert tri.last_plan["mode"] == "scan"
    tri.search_regex(r"stream (big|small)")
    assert tri.last_plan["mode"] == "pruned"
    assert required_literals(r"a|b") == []


def test_required_literals_sound():
    from stacksearch_ray.trigram import required_literals

    # every returned literal must appear in every matching string
    cases = {
        r"abcdef": ["abcdef"],
        r"abc(x|y)def": ["abc", "def"],
        r"abcd+ef": ["abc"],          # quantified 'd' not required once
        r"ab?cdef": ["cdef"],
        r"foo.bar": ["foo", "bar"],
        r"a\.bcd": ["a.bcd"],
        r"\d+abc": ["abc"],
        r"^start end$": ["start end"],
        r"ab{2}cde": ["cde"],
        r"x|yabc": [],
        r"[abc]def": ["def"],
    }
    for pat, want in cases.items():
        assert required_literals(pat) == want, pat
    # property: literals really are required, on random matching strings
    rng = random.Random(3)
    for pat, lits in cases.items():
        if not lits:
            continue
        rx = re.compile(pat)
        for _ in range(20):
            # build candidate strings around the pattern's fixed parts
            probe = "".join(
                rng.choice(["x", "7", " "]) if ch in ".?+*{}[]()|\\^$"
                else ch for ch in pat)
            m = rx.search(probe)
            if m:
                for lit in lits:
                    assert lit in probe


def test_trigram_hexes_match_naive():
    from stacksearch_ray.trigram import pattern_trigram_hexes

    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(0, 40)
        b = bytes(rng.randrange(256) for _ in range(n))
        naive = sorted({b[i:i + 3].hex() for i in range(len(b) - 2)})
        assert pattern_trigram_hexes(b) == naive


def test_hex_tokens_survive_analyzer():
    """The hex encoding rides the standard analyzer untouched: lowercase
    alnum, never a stopword — pinned so a stopword-list change that
    breaks this assumption fails loudly."""
    from stacksearch_ray.stopwords import ENGLISH_STOPWORDS
    from stacksearch_ray.text import clean_query

    assert not any(re.fullmatch(r"[0-9a-f]{6}", w)
                   for w in ENGLISH_STOPWORDS)
    assert clean_query("20616a ffee00", max_tokens=None) == \
        ["20616a", "ffee00"]


def test_unicode_pattern(tri, corpus):
    # multi-byte UTF-8 patterns trigram over bytes; absent here → empty
    t = tri.search_substring("héllo")
    assert t.num_rows == 0


def test_append_equals_full_build(ray_session, tmp_path, corpus):
    """build(half1) + append(half2) serves the same substring/regex
    results as build(full): term_doc_ids candidates are stats-free, so
    the appended index is EXACTLY equal, not just rank-equal."""
    import ray.data as rd

    from stacksearch_ray.trigram import (TrigramSearcher,
                                         append_to_trigram_index,
                                         build_trigram_index)

    full = pq.read_table(f"{SF_DIR}/documents.parquet",
                         columns=["doc_id", "text"])
    half1, half2 = full.slice(0, 250), full.slice(250)
    idx_a = str(tmp_path / "tri_appended")
    build_trigram_index(rd.from_arrow(half1), idx_a)
    append_to_trigram_index(rd.from_arrow(half2), idx_a)
    idx_f = str(tmp_path / "tri_full")
    build_trigram_index(rd.from_arrow(full), idx_f)

    sa, sf = TrigramSearcher(idx_a), TrigramSearcher(idx_f)
    for pat in ("rt ba", "w dup", "batch batch", "zz"):
        ta, tf = sa.search_substring(pat), sf.search_substring(pat)
        assert ta.equals(tf), pat
        assert _got(ta) == _expect_substring(corpus, pat), pat
    for rpat in (r"stream (big|small) (sort|join)", r"(join ){2}"):
        assert sa.search_regex(rpat).equals(sf.search_regex(rpat)), rpat


def test_wildcard(tri, corpus):
    import re as _re

    for pat in ("sort*dup", "merge*batch*window", "*join*", "zzz*zzz"):
        got = _got(tri.search_wildcard(pat))
        rx = _re.compile("[\\s\\S]*".join(_re.escape(p)
                                          for p in pat.split("*")))
        exp = {d: len(rx.findall(s)) for d, s in corpus.items()
               if rx.search(s)}
        assert got == exp, pat
    # all-literal pieces prune; all-star scans
    tri.search_wildcard("sort*dup")
    assert tri.last_plan["mode"] == "pruned"


def test_sharded_equals_single(tri, corpus):
    from stacksearch_ray.trigram import ShardedTrigramSearcher

    sh = ShardedTrigramSearcher(tri.index_dir, num_workers=3)
    for pat in ("rt ba", "w dup", "batch batch batch", "qqqxyz"):
        a, b = tri.search_substring(pat), sh.search_substring(pat)
        assert a.equals(b), pat
    for rpat in (r"stream (big|small) (sort|join)", r"(join ){2}"):
        assert tri.search_regex(rpat).equals(sh.search_regex(rpat)), rpat
    sh.search_substring("rt ba")
    assert sh.last_plan["mode"] == "pruned"
