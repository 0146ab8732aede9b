"""ES _search request-body adapter: every supported body shape must
route onto the exact engine surface it claims (scores bitwise equal
the direct call), pagination/min_score follow ES semantics, and
anything outside the subset raises UnsupportedEsQuery loudly."""
import os

import numpy as np
import pytest

from stacksearch_ray.es_api import UnsupportedEsQuery, es_search

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def eng(ray_session, tmp_path_factory):
    from stacksearch_ray.build import build_index
    from stacksearch_ray.query import QueryEngine

    idx = str(tmp_path_factory.mktemp("esapi") / "idx")
    build_index(os.path.join(SF, "documents.parquet"), idx,
                content_col="text", id_col="doc_id",
                store_positions=True, num_shards=4)
    return QueryEngine(idx)


def hits(resp):
    return [(int(h["_id"]), h["_score"]) for h in resp["hits"]["hits"]]


def test_match_or_and_msm(eng):
    want = eng.search("merge sort join", 10)
    got = es_search(eng, {"query": {"match": {"text": "merge sort join"}}})
    assert hits(got) == want
    assert got["hits"]["max_score"] == want[0][1]
    want_and = eng.search_min_should_match("merge sort join", 3, 10)
    got_and = es_search(eng, {"query": {"match": {"text": {
        "query": "merge sort join", "operator": "and"}}}})
    assert hits(got_and) == want_and
    want_m2 = eng.search_min_should_match("merge sort join", 2, 10)
    got_m2 = es_search(eng, {"query": {"match": {"text": {
        "query": "merge sort join", "minimum_should_match": 2}}}})
    assert hits(got_m2) == want_m2


@pytest.mark.parametrize("msm,want", [
    (2, 2), ("2", 2), (-1, 3), ("-1", 3), ("75%", 3), ("-25%", 3),
    ("-50%", 2), ("50%", 2), ("100%", 4), (-9, -5), ("0%", 0), (5, 5)])
def test_match_msm_forms(eng, msm, want):
    """Every supported ES form, on 4 optional clauses, equals the direct
    engine call with the count ES derives (bitwise scores)."""
    q = "merge sort join window"
    got = es_search(eng, {"query": {"match": {"text": {
        "query": q, "minimum_should_match": msm}}}})
    assert hits(got) == eng.search_min_should_match(q, want, 10)


@pytest.mark.parametrize("msm", ["3<90%", "2<-25% 9<-3", "1.5", 0.5,
                                 True, "75 %"])
def test_match_msm_unsupported_forms_raise(eng, msm):
    with pytest.raises(UnsupportedEsQuery):
        es_search(eng, {"query": {"match": {"text": {
            "query": "merge sort join", "minimum_should_match": msm}}}})


def test_phrase_prefix_term_terms(eng):
    assert hits(es_search(eng, {"query": {"match_phrase": {"text": {
        "query": "merge sort", "slop": 1}}}})) == \
        eng.search_phrase_ranked("merge sort", 10, slop=1)
    assert hits(es_search(eng, {"query": {
        "match_bool_prefix": {"text": "merge so"}}})) == \
        eng.search_match_bool_prefix("merge so", 10)
    assert hits(es_search(eng, {"query": {"term": {"text": "merge"}}})) \
        == eng.search("merge", 10)
    # terms = Lucene TermInSetQuery: constant score, doc_id order
    got = hits(es_search(eng, {"query": {"terms": {"text":
                                                   ["merge", "window"]}}}))
    assert got == eng.search_constant_score("merge OR window", 1.0, 10)
    assert all(s == 1.0 for _, s in got)


def test_bool_shapes(eng):
    want = eng.search_bool_query(("merge", "sort"), ("stream",), ("dup",), 10)
    got = es_search(eng, {"query": {"bool": {
        "must": [{"match": {"text": "merge"}}, {"term": {"text": "sort"}}],
        "should": [{"term": {"text": "stream"}}],
        "must_not": [{"term": {"text": "dup"}}]}}})
    assert hits(got) == want
    # filter folds into matching (documented deviation: it also scores)
    got_f = es_search(eng, {"query": {"bool": {
        "must": [{"match": {"text": "merge"}}],
        "filter": [{"term": {"text": "sort"}}]}}})
    assert hits(got_f) == eng.search_bool_query(("merge", "sort"), (), (), 10)
    # pure-should bool matches on should via query_string
    got_s = es_search(eng, {"query": {"bool": {
        "should": [{"term": {"text": "merge"}}, {"term": {"text": "window"}}],
        "must_not": [{"term": {"text": "dup"}}]}}})
    assert hits(got_s) == eng.search_query_string(
        "( merge OR window ) AND NOT ( dup )", 10)
    with pytest.raises(UnsupportedEsQuery):
        es_search(eng, {"query": {"bool": {
            "must_not": [{"term": {"text": "merge"}}]}}})


def test_qs_sqs_pinned_constant(eng):
    assert hits(es_search(eng, {"query": {"query_string": {
        "query": "(merge OR sort) AND stream"}}})) == \
        eng.search_query_string("(merge OR sort) AND stream", 10)
    assert hits(es_search(eng, {"query": {"simple_query_string": {
        "query": "merge +sort -dup"}}})) == \
        eng.search_simple_query_string("merge +sort -dup", 10)
    want = [(d, s) for d, s, _ in eng.search_pinned("merge sort", [7, 3], 10)]
    assert hits(es_search(eng, {"query": {"pinned": {
        "ids": [7, 3], "organic": {"match": {"text": "merge sort"}}}}})) \
        == want
    assert hits(es_search(eng, {"query": {"constant_score": {
        "filter": {"terms": {"text": ["merge", "sort"]}},
        "boost": 2.5}}})) == \
        eng.search_constant_score("merge OR sort", 2.5, 10)


def test_pagination_min_score_match_all(eng):
    full = eng.search("merge sort join", 10)
    resp = es_search(eng, {"query": {"match": {"text": "merge sort join"}},
                           "from": 3, "size": 4})
    assert hits(resp) == full[3:7]
    assert resp["hits"]["total"]["value"] == 7
    cut = full[2][1]
    resp2 = es_search(eng, {"query": {"match": {"text": "merge sort join"}},
                            "min_score": cut})
    assert all(s >= cut for _, s in hits(resp2))
    assert hits(resp2) == [(d, s) for d, s in full if s >= cut]
    ma = es_search(eng, {"query": {"match_all": {}}, "size": 5})
    ids = [d for d, _ in hits(ma)]
    assert ids == sorted(ids) and len(ids) == 5
    assert all(s == 1.0 for _, s in hits(ma))


def test_unsupported_raise(eng):
    for bad in (
        {"query": {"more_like_this": {"like": "mrge"}}},
        {"query": {"match": {"text": "merge"}}, "aggs": {}},
        {"query": {"bool": {"must": [{"bool": {"must": []}}]}}},
        {"query": {"match": {"text": {"query": "merge",
                                      "operator": "xor"}}}},
    ):
        with pytest.raises(UnsupportedEsQuery):
            es_search(eng, bad)


def test_sharded_passthrough(ray_session, eng):
    from stacksearch_ray.query import ShardedQueryEngine

    sh = ShardedQueryEngine(eng.index_dir, num_workers=2)
    body = {"query": {"bool": {"must": [{"term": {"text": "merge"}}],
                               "should": [{"term": {"text": "stream"}}]}}}
    assert hits(es_search(sh, body)) == hits(es_search(eng, body))
    # multi-term queries ride the sharded search_wildcard / search_regex
    for q in ({"prefix": {"text": "mer"}},
              {"wildcard": {"text": {"value": "mer*", "boost": 2.0}}},
              {"wildcard": {"text": "m*ge"}},
              {"regexp": {"text": "mer.e"}}):
        want = hits(es_search(eng, {"query": q}))
        assert want and hits(es_search(sh, {"query": q})) == want, q
    # the two bodies that need the engine's local term_dict / doc
    # universe are refused on the fan-out engine, never approximated
    for q in ({"fuzzy": {"text": "mergge"}}, {"match_all": {}}):
        with pytest.raises(UnsupportedEsQuery):
            es_search(sh, {"query": q})


def test_boost_and_explain(eng):
    # clause boost = Lucene BoostQuery: score × boost, bitwise via
    # search_boosted
    want = eng.search_boosted({"merge": 2.0, "sort": 2.0}, 10)
    got = es_search(eng, {"query": {"match": {"text": {
        "query": "merge sort", "boost": 2.0}}}})
    assert hits(got) == want
    want_t = eng.search_boosted({"merge": 3.0}, 10)
    got_t = es_search(eng, {"query": {"term": {"text": {
        "value": "merge", "boost": 3.0}}}})
    assert hits(got_t) == want_t
    # "explain": true — _explanation.value is BITWISE the hit score
    resp = es_search(eng, {"query": {"match": {"text": "merge sort"}},
                           "size": 3, "explain": True})
    for h in resp["hits"]["hits"]:
        ex = h["_explanation"]
        assert ex["value"] == h["_score"]
        assert sum(d["value"] for d in ex["details"]) == pytest.approx(
            h["_score"], abs=0)
        assert any("weight(text:merge)" in d["description"]
                   for d in ex["details"])
    with pytest.raises(UnsupportedEsQuery):
        es_search(eng, {"query": {"match_phrase": {"text": "merge sort"}},
                        "explain": True})


def test_es_request_search_entry(ray_session):
    """Driver entry es_request_search: the adapter-routed bool body is
    bitwise bool_query_search (they share one oracle)."""
    from stacksearch_ray.pipelines import documents as P

    a = P.es_request_search(SF).to_pydict()
    b = P.bool_query_search(SF).to_pydict()
    assert a == b


def test_search_after_cursor(eng):
    full = eng.search("merge sort join", 10)
    p1 = es_search(eng, {"query": {"match": {"text": "merge sort join"}},
                         "size": 3, "sort": ["_score", "_id"]})
    last = p1["hits"]["hits"][-1]
    p2 = es_search(eng, {"query": {"match": {"text": "merge sort join"}},
                         "size": 3, "sort": [{"_score": {"order": "desc"}}],
                         "search_after": [last["_score"], int(last["_id"])]})
    assert hits(p1) + hits(p2) == full[:6]
    with pytest.raises(UnsupportedEsQuery):
        es_search(eng, {"query": {"match": {"text": "merge"}},
                        "from": 2, "search_after": [1.0, 0]})
    with pytest.raises(UnsupportedEsQuery):
        es_search(eng, {"query": {"match": {"text": "merge"}},
                        "sort": [{"n_chars": "asc"}]})


def test_fuzzy_query(eng):
    # "mergge" is 1 edit from "merge" (extra g); AUTO on a 6-char
    # token allows 2. Expansion must find the real term and rank via
    # the boosted scorer with Lucene's fuzzy boost
    import numpy as np

    from stacksearch_ray.es_api import _fuzzy_boosts

    bmap = _fuzzy_boosts(eng, "mergge", "AUTO", 50, 0)
    assert "merge" in bmap
    assert bmap["merge"] == 1.0 - 1.0 / 5  # d=1, min(6,5)=5
    got = hits(es_search(eng, {"query": {"fuzzy": {"text": "mergge"}}}))
    assert got == eng.search_boosted(bmap, 10)
    assert len(got) == 10
    # fuzziness=0 on an exact vocab term == plain term scoring
    got0 = hits(es_search(eng, {"query": {"fuzzy": {"text": {
        "value": "merge", "fuzziness": 0}}}}))
    assert [d for d, _ in got0] == [d for d, _ in eng.search("merge", 10)]
    # prefix_length gates expansions; an impossible prefix matches none
    assert hits(es_search(eng, {"query": {"fuzzy": {"text": {
        "value": "zzzqq", "fuzziness": 2, "prefix_length": 3}}}})) == []


def test_prefix_wildcard_regexp(eng):
    # prefix / trailing-* wildcard: same doc set, constant score,
    # doc_id order (the MTQ constant-score rewrite)
    ids = [int(d) for d in eng.search_wildcard("mer")[0][:10]]
    got_p = hits(es_search(eng, {"query": {"prefix": {"text": "mer"}}}))
    assert got_p == [(d, 1.0) for d in ids]
    got_w = hits(es_search(eng, {"query": {"wildcard": {"text": {
        "value": "mer*", "boost": 2.0}}}}))
    assert got_w == [(d, 2.0) for d in ids]
    # inner wildcard routes through the regex engine
    got_mid = hits(es_search(eng, {"query": {"wildcard": {"text":
                                                          "m*ge"}}}))
    want_mid = [int(d) for d in eng.search_regex("m.*ge")[0][:10]]
    assert [d for d, _ in got_mid] == want_mid
    got_r = hits(es_search(eng, {"query": {"regexp": {"text":
                                                      "mer.e"}}}))
    want_r = [int(d) for d in eng.search_regex("mer.e")[0][:10]]
    assert [d for d, _ in got_r] == want_r and want_r  # non-vacuous


def test_regexp_uppercase_literal_raises(eng):
    # the vocabulary is lowercase: an uppercase literal would silently
    # match nothing, so it is refused; backslash escapes stay legal
    for pat in ("Mer.e", "mer[A-Z]e", "MERGE"):
        with pytest.raises(UnsupportedEsQuery, match="uppercase"):
            es_search(eng, {"query": {"regexp": {"text": pat}}})
    for pat in (r"mer\Se", r"\Wmerge|mer\w\w"):
        want = [int(d) for d in eng.search_regex(pat)[0][:10]]
        got = hits(es_search(eng, {"query": {"regexp": {"text": pat}}}))
        assert [d for d, _ in got] == want and want  # "merge" matches
