"""Sharded query fan-out (SURVEY.md E2): worker-pool results must be
bitwise identical to the single-process engine, including with shard
subsets whose local df differs from global df."""

import pytest

from stacksearch_ray.corpus import write_corpus


@pytest.fixture(scope="module")
def index_dir(ray_session, tmp_path_factory):
    from stacksearch_ray.build import build_index

    root = tmp_path_factory.mktemp("sharded")
    corpus = str(root / "corpus")
    write_corpus(corpus, 600, rows_per_file=100)
    idx = str(root / "idx")
    build_index(corpus, idx, num_shards=8)
    return idx


def test_sharded_identity(index_dir):
    from stacksearch_ray.query import QueryEngine, ShardedQueryEngine

    eng = QueryEngine(index_dir)
    sharded = ShardedQueryEngine(index_dir, num_workers=3)  # uneven split
    for q in ["def return var_1", "Determine a user's timezone",
              "helper_3 field_7 import", "numpy python", "zzz_missing", ""]:
        assert sharded.search(q, 10) == eng.search(q, 10), q


def test_shard_subset_uses_global_df(index_dir):
    from stacksearch_ray.query import QueryEngine

    full = QueryEngine(index_dir)
    sub = QueryEngine(index_dir, shard_subset=[0, 1, 2])
    q = "def return var_1"
    full_res = dict(full.search(q, 1000))
    # every doc the subset returns must carry the SAME score as in the
    # full engine (global idf) — a local-df idf would differ
    for doc_id, score in sub.search(q, 20):
        assert full_res[doc_id] == score


def test_sharded_custom_scorer(index_dir):
    from stacksearch_ray.query import QueryEngine, ShardedQueryEngine

    eng = QueryEngine(index_dir)
    sharded = ShardedQueryEngine(index_dir, num_workers=2)
    q = "def import class"
    assert (sharded.search(q, 10, scorer="tfidf")
            == eng.search(q, 10, scorer="tfidf"))


def test_search_many_batched(index_dir):
    from stacksearch_ray.query import QueryEngine, ShardedQueryEngine

    eng = QueryEngine(index_dir)
    sharded = ShardedQueryEngine(index_dir, num_workers=3)
    queries = ["def return var_1", "numpy python", "helper_3 field_7", ""]
    batch = sharded.search_many(queries, 10)
    assert len(batch) == len(queries)
    for q, res in zip(queries, batch):
        assert res == eng.search(q, 10), q


def test_sharded_boosted_and_synonym_identity(index_dir):
    from stacksearch_ray.query import QueryEngine, ShardedQueryEngine

    eng = QueryEngine(index_dir)
    sharded = ShardedQueryEngine(index_dir, num_workers=3)
    boosts = {"def": 0.3, "return": 2.0, "var_1": 1.0}
    assert (sharded.search_boosted(boosts, 10)
            == eng.search_boosted(boosts, 10))
    groups = [["def", "return"], ["var_1", "helper_3"]]
    assert (sharded.search_synonym_groups(groups, 10)
            == eng.search_synonym_groups(groups, 10))
    assert sharded.search_synonym_groups([["zzz_missing"]], 10) == []


def test_sharded_feature_boost_identity(index_dir):
    import numpy as np

    from stacksearch_ray.query import QueryEngine, ShardedQueryEngine

    eng = QueryEngine(index_dir)
    sharded = ShardedQueryEngine(index_dir, num_workers=3)
    q = "def return var_1"
    # deterministic synthetic feature over every doc in the index
    ids = eng.doclens.ids
    vals = np.log(1.0 + (ids % 97).astype(np.float64))
    single = eng.search_feature_boost(q, 12, feature_ids=ids,
                                      feature_vals=vals, weight=0.5)
    fan = sharded.search_feature_boost(q, 12, feature_ids=ids,
                                       feature_vals=vals, weight=0.5)
    assert fan == single  # floats compared EXACTLY (disjoint shards)


def test_min_should_match_semantics(index_dir):
    """m=1 == plain exhaustive; m=n_terms == conjunctive; middle m keeps
    only docs matching ≥m terms, at their full accumulated scores."""
    import numpy as np

    from stacksearch_ray.query import QueryEngine

    from stacksearch_ray.text import clean_query

    eng = QueryEngine(index_dir)
    q = "def return var_1"
    terms = sorted(set(clean_query(q)))  # var_1 tokenizes to var1
    assert (eng.search_min_should_match(q, 1, 10)
            == eng.search(q, 10, method="exhaustive"))
    assert (eng.search_min_should_match(q, 3, 10)
            == eng.search_conjunctive(q, 10))
    mid = eng.search_min_should_match(q, 2, 50)
    full = dict(eng.search(q, 10_000, method="exhaustive"))
    for d, s in mid:
        n = sum(int(np.searchsorted(eng.term_doc_ids(t), d)
                    < len(eng.term_doc_ids(t))
                    and eng.term_doc_ids(t)[np.searchsorted(
                        eng.term_doc_ids(t), d)] == d) for t in terms)
        assert n >= 2, (d, n)
        assert s == full[d]  # survivor keeps its unfiltered score


def test_sharded_min_should_match_identity(index_dir):
    from stacksearch_ray.query import QueryEngine, ShardedQueryEngine

    eng = QueryEngine(index_dir)
    sharded = ShardedQueryEngine(index_dir, num_workers=3)
    q = "def return var_1"
    for m in (1, 2, 3):
        assert (sharded.search_min_should_match(q, m, 12)
                == eng.search_min_should_match(q, m, 12)), m


def test_term_routing_identity_and_pruning(index_dir):
    """Routing-enabled fan-out is bitwise identical to unrouted AND to
    the single engine, and genuinely prunes workers for a term that
    lives in a strict subset of shards."""
    import numpy as np

    from stacksearch_ray.query import QueryEngine, ShardedQueryEngine

    eng = QueryEngine(index_dir)
    routed = ShardedQueryEngine(index_dir, num_workers=4, route_terms=True)
    assert routed._route_bits is not None
    assert routed._route_bits.shape == (4, 1 << 20)
    for q in ["def return var_1", "numpy python", "helper_3 field_7 import",
              "zzz_missing", ""]:
        assert routed.search(q, 10) == eng.search(q, 10), q
    # a rare term: find one whose postings sit in < all 4 worker subsets
    # (doc-hash sharding spreads hot terms everywhere; pick the rarest)
    rare = None
    for t, df in sorted(eng._df_only(
            ["helper_3", "field_7", "var_1"]).items(), key=lambda kv: kv[1]):
        ids = eng.term_doc_ids(t)
        if ids.size and ids.size <= 4:
            rare = t
            break
    if rare is not None:
        n_routed = len(routed._routed_workers([rare]))
        assert 1 <= n_routed <= 4
        assert routed.search(rare, 10) == eng.search(rare, 10)
    # empty-query and all-unknown-term routing return [] without any RPC
    assert routed._routed_workers([""]) == []


def test_search_many_routed_identity(index_dir):
    from stacksearch_ray.query import QueryEngine, ShardedQueryEngine

    eng = QueryEngine(index_dir)
    routed = ShardedQueryEngine(index_dir, num_workers=3, route_terms=True)
    queries = ["def return var_1", "numpy python", "helper_3 field_7", ""]
    got = routed.search_many(queries, 10)
    assert got == [eng.search(q, 10) for q in queries]


def test_search_after_cursor(index_dir):
    """Cursor pages stitch into the exhaustive top-k, and the sharded
    cursor fan-out is bitwise identical to the single engine."""
    from stacksearch_ray.query import QueryEngine, ShardedQueryEngine

    eng = QueryEngine(index_dir)
    q = "def return var_1"
    top30 = eng.search(q, 30, method="exhaustive")
    pages, cur = [], None
    for _ in range(3):
        page = (eng.search(q, 10, method="exhaustive") if cur is None
                else eng.search_after(q, cur[1], cur[0], 10))
        pages.extend(page)
        cur = page[-1]
    assert pages == top30
    sharded = ShardedQueryEngine(index_dir, num_workers=3,
                                 route_terms=True)
    c = top30[9]
    assert (sharded.search_after(q, c[1], c[0], 10)
            == eng.search_after(q, c[1], c[0], 10) == top30[10:20])
    # cursor past the last result -> empty
    last = top30[-1]
    deep = eng.search_after(q, last[1], last[0], 1000)
    assert eng.search(q, 10_000, method="exhaustive")[30:] == deep


@pytest.fixture(scope="module")
def pos_index_dir(ray_session, tmp_path_factory):
    from stacksearch_ray.build import build_index

    root = tmp_path_factory.mktemp("sharded_pos")
    corpus = str(root / "corpus")
    write_corpus(corpus, 400, rows_per_file=100)
    idx = str(root / "idx")
    build_index(corpus, idx, num_shards=8,
                store_positions=True)
    return idx


def test_sharded_coord_identity(pos_index_dir):
    from stacksearch_ray.query import QueryEngine, ShardedQueryEngine

    eng = QueryEngine(pos_index_dir)
    sharded = ShardedQueryEngine(pos_index_dir, num_workers=3)
    for q in ["def return var_1", "helper_3 field_7 import",
              "numpy python", "zzz_missing"]:
        assert sharded.search_coord(q, 10) == eng.search_coord(q, 10), q


def test_sharded_feature_scale_identity(pos_index_dir):
    import numpy as np

    from stacksearch_ray.query import QueryEngine, ShardedQueryEngine

    eng = QueryEngine(pos_index_dir)
    sharded = ShardedQueryEngine(pos_index_dir, num_workers=3)
    rng = np.random.default_rng(5)
    ids = eng.doclens.ids[::3]  # sparse feature table
    vals = rng.uniform(0.0, 1.0, size=ids.size)
    q = "def return var_1"
    assert (sharded.search_feature_scale(q, 15, feature_ids=ids,
                                         feature_vals=vals)
            == eng.search_feature_scale(q, 15, feature_ids=ids,
                                        feature_vals=vals))


def test_sharded_rescore_identity(pos_index_dir):
    from stacksearch_ray.query import QueryEngine, ShardedQueryEngine

    eng = QueryEngine(pos_index_dir)
    sharded = ShardedQueryEngine(pos_index_dir, num_workers=3)
    for q in ["def return var_1", "helper_3 field_7 import", "zzz_missing"]:
        for w in (5, 30, 100):
            assert (sharded.search_rescore(q, 10, window_size=w,
                                           rescore_weight=2.0)
                    == eng.search_rescore(q, 10, window_size=w,
                                          rescore_weight=2.0)), (q, w)


# ---- one parity table: every public ShardedQueryEngine method ----

Q = "def return var_1"
QUERIES = [Q, "helper_3 field_7 import", "numpy python", "zzz_missing", ""]


@pytest.fixture(scope="module")
def parity(ray_session, tmp_path_factory):
    """(index, single engine, 3-worker pool over 4 shards — an uneven
    split —, the same pool with term routing on)."""
    import ray

    from stacksearch_ray.build import build_index
    from stacksearch_ray.query import QueryEngine, ShardedQueryEngine

    root = tmp_path_factory.mktemp("parity")
    corpus = str(root / "corpus")
    write_corpus(corpus, 300, rows_per_file=100)
    idx = str(root / "idx")
    build_index(corpus, idx, num_shards=4,
                store_positions=True)
    # fractional CPUs: both pools (and the tests' own) fit one session
    sh = ShardedQueryEngine(idx, num_workers=3, num_cpus_per_worker=0.25)
    routed = ShardedQueryEngine(idx, num_workers=3, route_terms=True,
                                num_cpus_per_worker=0.25)
    yield idx, QueryEngine(idx), sh, routed
    for w in sh.workers + routed.workers:
        ray.kill(w)


def _terms_set_msm():
    # an importable module function: the workers unpickle it by name
    from stacksearch_ray.pipelines.documents import _terms_set_msm

    return _terms_set_msm


def _cases(ids):
    """method name → call(engine); run on both engines, compared
    bitwise. ``ids`` are the index's doc ids (feature/field tables)."""
    import numpy as np

    vals = np.log(1.0 + (ids % 97).astype(np.float64))

    def sharded_only(e, name, *args):  # QueryEngine has no such method
        return getattr(e, name, lambda *a: None)(*args)

    def after(e):
        out = []
        for scorer in ("bm25", "tfidf"):
            c = e.search(Q, 10, method="exhaustive", scorer=scorer)[-1]
            out.append(e.search_after(Q, c[1], c[0], 10, scorer=scorer))
        return out

    # the engine's scorer/plan parameters, each through the pool too
    plans = ({}, {"scorer": "tfidf"}, {"plan": "dense"},
             {"plan": "selective"})

    return {
        "search": lambda e: [e.search(q, 10) for q in QUERIES]
        + [e.search(Q, 10, scorer="tfidf")],
        "search_many": lambda e: e.search_many(QUERIES, 10),
        "warm": lambda e: (sharded_only(e, "warm", QUERIES),
                           e.search_many(QUERIES, 10)),
        "enable_term_routing": lambda e: (
            sharded_only(e, "enable_term_routing"),
            [e.search(q, 10) for q in QUERIES]),
        "clear_request_cache": lambda e: (
            e.search(Q, 10), sharded_only(e, "clear_request_cache"),
            e.search(Q, 10)),
        "explain": lambda e: [e.explain(Q, int(d)) for d in ids[::97]],
        "search_pinned": lambda e: e.search_pinned(
            Q, [int(ids[3]), int(ids[200]), int(ids[3])], k=6),
        "search_boosted": lambda e: e.search_boosted(
            {"def": 0.3, "return": 2.0, "var1": 1.0}, 10),
        "search_synonym_groups": lambda e: e.search_synonym_groups(
            [["def", "return"], ["var1", "helper3"]], 10),
        "search_feature_boost": lambda e: e.search_feature_boost(
            Q, 12, feature_ids=ids, feature_vals=vals, weight=0.5),
        "search_min_should_match": lambda e: [
            e.search_min_should_match(Q, m, 12) for m in (1, 2, 3)],
        "search_terms_set": lambda e: e.search_terms_set(
            Q, _terms_set_msm(), 12),
        "search_span_near": lambda e: e.search_span_near(
            ["def", "return"], 10, slop=2),
        "search_intervals": lambda e: e.search_intervals(
            ["def", "return"], 10, max_gaps=2, not_containing="import"),
        "search_span_containing": lambda e: e.search_span_containing(
            ["def", "return"], "import", 10, max_gaps=10),
        "search_constant_score": lambda e: e.search_constant_score(
            "def AND NOT return", 2.5, 10),
        "search_boosting": lambda e: e.search_boosting(Q, "import", 0.3,
                                                       10),
        "search_query_string": lambda e: [
            e.search_query_string(qs, 10) for qs in
            ("def AND return", "var_1 OR help*", '"def return"~2',
             "NOT def", "NOT zzz_missing")],
        "search_match_bool_prefix": lambda e: [
            e.search_match_bool_prefix(t, 10)
            for t in ("def retu", "helper_3 fie", "")],
        "search_simple_query_string": lambda e: e.search_simple_query_string(
            "def +return -import", 10),
        "search_filtered": lambda e: [e.search_filtered(
            Q, 10, allowed_doc_ids=ids[::3], **kw) for kw in plans],
        "search_span_first": lambda e: [e.search_span_first(
            Q, 10, first_term="def", limit=5, **kw) for kw in plans],
        "search_span_not": lambda e: [e.search_span_not(
            Q, 10, include_term="def", exclude_term="return", dist=2, **kw)
            for kw in plans],
        "export_matches": lambda e: e.export_matches(Q),
        "search_phrase_prefix": lambda e: [e.search_phrase_prefix(
            "def ret", 10, max_expansions=5, **kw) for kw in plans],
        "search_wildcard": lambda e: e.search_wildcard("help"),
        "search_regex": lambda e: e.search_regex("var1[0-9]"),
        "phrase_occurrences": lambda e: e.phrase_occurrences("def return"),
        "near_min_gaps": lambda e: e.near_min_gaps("def", "return"),
        "min_ordered_spans": lambda e: e.min_ordered_spans(["def", "return"]),
        "min_cover_windows": lambda e: [e.min_cover_windows(
            ["def", "return"], within=w) for w in (None, ids[::5])],
        "search_proximity_boost": lambda e: e.search_proximity_boost(
            Q, 10, weight=2.0),
        "search_coord": lambda e: [e.search_coord(q, 10) for q in QUERIES],
        "search_feature_scale": lambda e: e.search_feature_scale(
            Q, 15, feature_ids=ids[::3], feature_vals=vals[::3]),
        "search_rescore": lambda e: [
            e.search_rescore(q, 10, window_size=w, rescore_weight=2.0)
            for q in (Q, "zzz_missing") for w in (5, 30)],
        "search_boolean_dsl": lambda e: [
            e.search_boolean_dsl(x) for x in
            ("(def AND return) OR NOT import", "NOT def", "NOT zzz_missing")],
        "search_bool_query": lambda e: e.search_bool_query(
            ["def"], ["return", "var_1"], ["import"], 10),
        "search_phrase_ranked": lambda e: e.search_phrase_ranked(
            "def return", 10, slop=2),
        "search_sorted_by": lambda e: [e.search_sorted_by(
            "def AND return", 10, field_ids=ids, field_vals=ids % 13,
            descending=d) for d in (True, False)],
        "search_after": after,
        "search_collapse": lambda e: e.search_collapse(
            Q, 10, group_ids=ids, group_codes=ids % 7, per_group=2),
    }


# term routing may skip workers only for these (each skipped worker
# holds no query term); the pure-NOT query_string / boolean DSL cases
# pin that the surfaces whose results can hold such docs never route
ROUTED = ("search", "search_many", "search_coord", "search_feature_scale",
          "search_after", "search_rescore", "enable_term_routing",
          "search_query_string", "search_boolean_dsl")


def _same(a, b) -> bool:
    """Bitwise equality through lists/tuples/dicts of numpy arrays."""
    import numpy as np

    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and np.array_equal(a, b))
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(_same(a[x], b[x]) for x in a))
    return type(a) is type(b) and a == b


def test_parity_table_covers_every_public_method():
    import inspect

    from stacksearch_ray.query import ShardedQueryEngine

    public = {n for n, _ in inspect.getmembers(ShardedQueryEngine,
                                               inspect.isfunction)
              if not n.startswith("_")}
    cases = set(_case_names())
    assert public - cases == set(), "sharded methods with no parity case"
    assert cases - public == set()
    assert set(ROUTED) <= cases


def test_sharded_signatures_match_the_engine():
    """Every public name both classes define takes the engine's exact
    signature on the pool (es_api relies on the same calls)."""
    import inspect

    from stacksearch_ray.query import QueryEngine, ShardedQueryEngine

    def sig(cls, name):
        # ray.remote(QueryEngine) adds a tracing keyword to the methods
        # of the class it wraps; it is not part of the surface
        s = inspect.signature(getattr(cls, name))
        return s.replace(parameters=[p for p in s.parameters.values()
                                     if p.name != "_ray_trace_ctx"])

    shared = {n for n in dir(ShardedQueryEngine)
              if not n.startswith("_") and hasattr(QueryEngine, n)}
    assert shared
    differ = sorted(n for n in shared if sig(QueryEngine, n)
                    != sig(ShardedQueryEngine, n))
    assert differ == []


def _case_names() -> list[str]:
    import numpy as np

    return sorted(_cases(np.zeros(1, dtype=np.int64)))


@pytest.mark.parametrize("name,route",
                         [(n, False) for n in _case_names()
                          if n != "enable_term_routing"]  # would route sh
                         + [(n, True) for n in ROUTED])
def test_sharded_parity(parity, name, route):
    _idx, eng, sh, routed = parity
    case = _cases(eng.doclens.ids)[name]
    assert _same(case(routed if route else sh), case(eng)), name


def test_array_arguments_ship_once(parity):
    """The "ships once" docstrings: every array-carrying surface puts
    the same number of objects whatever the worker count — no per-worker
    re-serialization."""
    from unittest import mock

    import numpy as np
    import ray

    from stacksearch_ray.query import ShardedQueryEngine

    idx, eng, sh3, _ = parity
    ids = eng.doclens.ids
    vals = (ids % 5).astype(np.float64)
    calls = {
        "search_filtered": lambda e: e.search_filtered(
            Q, 10, allowed_doc_ids=ids[::2]),
        "search_feature_boost": lambda e: e.search_feature_boost(
            Q, 10, feature_ids=ids, feature_vals=vals),
        "search_feature_scale": lambda e: e.search_feature_scale(
            Q, 10, feature_ids=ids, feature_vals=vals),
        "search_sorted_by": lambda e: e.search_sorted_by(
            "def", 10, field_ids=ids, field_vals=vals),
        "search_collapse": lambda e: e.search_collapse(
            Q, 10, group_ids=ids, group_codes=ids % 7),
        "search_rescore": lambda e: e.search_rescore(Q, 10),
    }
    sh2 = ShardedQueryEngine(idx, num_workers=2, num_cpus_per_worker=0.25)
    try:
        for name, call in calls.items():
            puts = []
            for e in (sh2, sh3):
                with mock.patch("ray.put", wraps=ray.put) as put:
                    call(e)
                puts.append(put.call_count)
            assert puts[0] == puts[1] > 0, (name, puts)
    finally:
        for w in sh2.workers:
            ray.kill(w)


def test_dead_worker_raises_promptly(parity):
    """A killed worker fails the next fan-out with RayActorError rather
    than hanging it (no restarts or deadlines yet)."""
    import time

    import ray

    from stacksearch_ray.query import ShardedQueryEngine

    sh = ShardedQueryEngine(parity[0], num_workers=2,
                            num_cpus_per_worker=0.25)
    try:
        assert sh.search(Q, 10)  # both workers up
        ray.kill(sh.workers[0])
        t0 = time.perf_counter()
        # ray.kill is asynchronous: until the actor is seen dead, a
        # search can still finish on it
        while time.perf_counter() - t0 < 30:
            try:
                ray.get(sh.workers[0].__ray_ready__.remote(), timeout=1)
            except ray.exceptions.RayActorError:
                break
            except ray.exceptions.GetTimeoutError:
                continue
            time.sleep(0.05)
        with pytest.raises(ray.exceptions.RayActorError):
            sh.search(Q, 10)
        assert time.perf_counter() - t0 < 30
    finally:
        for w in sh.workers:
            ray.kill(w)
