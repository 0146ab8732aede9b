"""Elasticsearch ``_search`` request-body adapter — the integration
surface a user switching FROM Elasticsearch actually calls.

``es_search(engine, body)`` accepts a dict shaped like an ES 8
``_search`` request body and routes it onto the engine's proven (and
driver-oracled) retrieval surfaces; the response is ES-shaped
(``hits.total`` / ``hits.hits`` with ``_id`` / ``_score``). The
adapter is a TRANSLATOR, not a new scorer: every query type maps onto
an existing QueryEngine method, so scores are bitwise the scores those
surfaces already prove against DuckDB, and anything outside the
supported subset raises ``UnsupportedEsQuery`` loudly (silent
approximations of ES semantics are how migrations rot).

Supported query subset (single text field — this engine indexes one
analyzed field, like the reference):

- ``match`` (operator and/or, minimum_should_match as an integer,
  negative integer, percentage or negative percentage)
- ``match_phrase`` (slop) / ``match_bool_prefix``
- ``term`` / ``terms`` (text-field token semantics)
- ``bool`` with one level of term/match/terms clauses in
  must / filter / should / must_not
- ``constant_score`` (term/terms filter, boost)
- ``simple_query_string`` / ``query_string``
- ``pinned`` (ids + organic match)
- ``match_all``

Request-level: ``size`` / ``from`` pagination (retrieval runs at
``from + size`` then slices — ES's own deep-pagination cost model),
``min_score``. Anything else present in the body raises.

Works identically over a ``ShardedQueryEngine`` (same method names),
with two exceptions that raise ``UnsupportedEsQuery`` there: ``fuzzy``
(expands over the engine's local term dictionary) and ``match_all``
(enumerates the engine's local doc universe).
"""

from __future__ import annotations

import re
import time
from typing import Any

from .text import clean_query


class UnsupportedEsQuery(ValueError):
    """Raised for any body/query element outside the supported subset."""


_TOP_KEYS = {"query", "size", "from", "min_score", "explain",
             "search_after", "sort"}


def _check_sort(sort: Any) -> None:
    """The engine's one total order is (score desc, doc_id asc) — ES's
    default. Accept only sort specs naming exactly that, so a body
    expecting a field sort fails loudly instead of silently getting
    score order."""
    allowed_keys = {"_score": "desc", "_id": "asc", "_doc": "asc"}
    if not isinstance(sort, list) or not sort:
        raise UnsupportedEsQuery("sort must be a non-empty list")
    for s in sort:
        if isinstance(s, str):
            key, order = s, allowed_keys.get(s)
        else:
            key, val = _one(s, "sort element")
            order = val.get("order", allowed_keys.get(key)) \
                if isinstance(val, dict) else val
        if key not in allowed_keys or order != allowed_keys[key]:
            raise UnsupportedEsQuery(
                f"unsupported sort {s!r} (this engine's total order is "
                "_score desc, _id asc)")


def _one(d: dict, what: str) -> tuple[str, Any]:
    if not isinstance(d, dict) or len(d) != 1:
        raise UnsupportedEsQuery(f"{what} must be a single-key dict, "
                                 f"got {d!r}")
    return next(iter(d.items()))


def _field_query(spec: Any, what: str) -> dict:
    """ES lets leaf queries be ``{"field": "text"}`` or
    ``{"field": {"query": ..., ...opts}}`` — normalize to the dict.
    ``term`` queries spell their text ``value`` (ES grammar); fold
    that onto ``query`` so callers read one key."""
    field, val = _one(spec, what)
    del field  # single-field engine: the field name is accepted, not routed
    if not isinstance(val, dict):
        return {"query": val}
    if "value" in val and "query" not in val:
        val = {**val, "query": val["value"]}
    return val


def _terms_of(text: str, what: str) -> list[str]:
    toks = clean_query(str(text))
    if not toks:
        raise UnsupportedEsQuery(f"{what} analyzes to zero tokens: {text!r}")
    return toks


_MSM = re.compile(r"(-?)(\d+)(%?)")


def _min_should_match(msm: Any, n: int) -> int:
    """ES ``minimum_should_match`` over ``n`` optional clauses: ``3``
    (a count), ``-1`` (all but one), ``"75%"`` (n·75% rounded down) or
    ``"-25%"`` (all but n·25% rounded down); numbers may also come as
    strings. A result below 1 means any clause matches, one above
    ``n`` matches nothing (Lucene's behaviour). Combinations such as
    ``"3<90%"`` raise."""
    m = (None if isinstance(msm, bool) or not isinstance(msm, (int, str))
         else _MSM.fullmatch(str(msm).strip()))
    if m is None:
        raise UnsupportedEsQuery(f"minimum_should_match {msm!r}")
    neg, num, pct = m.groups()
    v = n * int(num) // 100 if pct else int(num)
    return n - v if neg else v


def _leaf_terms(q: dict, what: str) -> list[str]:
    """Fold a term/terms/match leaf into its analyzed token list —
    the shape bool clauses combine."""
    kind, spec = _one(q, what)
    if kind == "term":
        return _terms_of(_field_query(spec, kind)["query"], what)
    if kind == "terms":
        _, vals = _one(spec, kind)
        out: list[str] = []
        for v in vals:
            out.extend(_terms_of(v, what))
        return out
    if kind == "match":
        return _terms_of(_field_query(spec, kind)["query"], what)
    raise UnsupportedEsQuery(
        f"unsupported clause {kind!r} inside {what} (supported there: "
        "term, terms, match)")


def _run_query(engine, q: dict, k: int) -> list[tuple[int, float]]:
    kind, spec = _one(q, "query")

    if kind == "match_all":
        return _match_all(engine, k)
    if kind == "match":
        fq = _field_query(spec, kind)
        text = fq["query"]
        op = str(fq.get("operator", "or")).lower()
        msm = fq.get("minimum_should_match")
        boost = fq.get("boost")
        terms = _terms_of(text, kind)
        if boost is not None:
            if msm is not None or op != "or":
                raise UnsupportedEsQuery(
                    "match boost composes only with the default "
                    "operator here")
            # Lucene BoostQuery: clause score × boost — exactly
            # search_boosted with a uniform per-term boost
            return engine.search_boosted(
                {t: float(boost) for t in terms}, k)
        if msm is not None:
            return engine.search_min_should_match(
                " ".join(terms), _min_should_match(msm, len(set(terms))), k)
        if op == "and":
            return engine.search_min_should_match(" ".join(terms),
                                                  len(set(terms)), k)
        if op != "or":
            raise UnsupportedEsQuery(f"match operator {op!r}")
        return engine.search(" ".join(terms), k)
    if kind == "match_phrase":
        fq = _field_query(spec, kind)
        return engine.search_phrase_ranked(str(fq["query"]), k,
                                           slop=int(fq.get("slop", 0)))
    if kind == "match_bool_prefix":
        fq = _field_query(spec, kind)
        return engine.search_match_bool_prefix(str(fq["query"]), k)
    if kind == "term":
        # ES term query on a text field: BM25 score of that one token
        fq = _field_query(spec, kind)
        terms = _terms_of(fq["query"], kind)
        if len(terms) != 1:
            raise UnsupportedEsQuery(
                f"term value analyzes to {len(terms)} tokens; use match")
        if "boost" in fq:
            return engine.search_boosted({terms[0]: float(fq["boost"])}, k)
        return engine.search(terms[0], k)
    if kind == "terms":
        # Lucene TermInSetQuery is CONSTANT-score: every doc holding
        # any of the terms scores the boost (1.0), doc_id order
        terms = _leaf_terms(q, kind)
        expr = " OR ".join(dict.fromkeys(terms))
        return engine.search_constant_score(expr, 1.0, k)
    if kind == "fuzzy":
        fq = _field_query(spec, kind)
        if set(fq) - {"query", "value", "fuzziness", "max_expansions",
                      "prefix_length"}:
            raise UnsupportedEsQuery(
                f"fuzzy keys {set(fq) - {'query', 'value', 'fuzziness'}}")
        terms = _terms_of(fq["query"], kind)
        if len(terms) != 1:
            raise UnsupportedEsQuery("fuzzy value must be one token")
        bmap = _fuzzy_boosts(engine, terms[0],
                             fq.get("fuzziness", "AUTO"),
                             int(fq.get("max_expansions", 50)),
                             int(fq.get("prefix_length", 0)))
        if not bmap:
            return []
        return engine.search_boosted(bmap, k)
    if kind in ("prefix", "wildcard", "regexp"):
        # ES multi-term queries rewrite to CONSTANT score (the MTQ
        # constant_score rewrite): every doc holding any matching
        # indexed term scores the boost, doc_id order. wildcard
        # translates * / ? onto the regex engine; regexp uses Python
        # ``re`` fullmatch semantics (documented dialect deviation
        # from Lucene regex syntax).
        fq = _field_query(spec, kind)
        if set(fq) - {"query", "value", "boost"}:
            raise UnsupportedEsQuery(
                f"{kind} keys {set(fq) - {'query', 'value', 'boost'}}")
        pat = str(fq["query"])
        boost = float(fq.get("boost", 1.0))
        if kind == "prefix":
            ids = engine.search_wildcard(pat.lower())[0]
        elif kind == "wildcard":
            if pat.endswith("*") and "*" not in pat[:-1] \
                    and "?" not in pat:
                ids = engine.search_wildcard(pat[:-1].lower())[0]
            else:
                rx = "".join(".*" if c == "*" else "." if c == "?"
                             else re.escape(c) for c in pat.lower())
                ids = engine.search_regex(rx)[0]
        else:
            # the vocabulary is lowercase, so an uppercase literal could
            # only match nothing; escapes (\S, \W, ...) stay legal
            if any(c.isupper() for c in re.sub(r"\\.", "", pat,
                                               flags=re.S)):
                raise UnsupportedEsQuery(
                    f"regexp {pat!r} holds an uppercase literal; the "
                    "index vocabulary is lowercase")
            ids = engine.search_regex(pat)[0]
        return [(int(d), boost) for d in ids[:k]]
    if kind == "bool":
        if not isinstance(spec, dict):
            raise UnsupportedEsQuery("bool body must be a dict")
        extra = set(spec) - {"must", "filter", "should", "must_not"}
        if extra:
            raise UnsupportedEsQuery(f"unsupported bool keys {extra}")

        def clauses(key: str) -> list[str]:
            cs = spec.get(key, [])
            cs = cs if isinstance(cs, list) else [cs]
            out: list[str] = []
            for c in cs:
                out.extend(_leaf_terms(c, f"bool.{key}"))
            return out

        # ES: filter matches like must but does not score; this
        # engine's bool query scores over must+should, and filter-only
        # constraints join the must set for matching. A filter term
        # therefore CONTRIBUTES score here — documented deviation for
        # the single-field subset (exact ES split would need a
        # scoring-mask variant).
        must = clauses("must") + clauses("filter")
        should, must_not = clauses("should"), clauses("must_not")
        if must:
            return engine.search_bool_query(tuple(must),
                                            should=tuple(should),
                                            must_not=tuple(must_not),
                                            k=k)
        if should:
            # no positive must: ES matches on should (implicit
            # minimum_should_match=1); route through the query_string
            # machinery, whose OR/NOT scoring is the proven surface
            qs = "( " + " OR ".join(dict.fromkeys(should)) + " )"
            for t in dict.fromkeys(must_not):
                qs += f" AND NOT ( {t} )"
            return engine.search_query_string(qs, k)
        raise UnsupportedEsQuery(
            "bool with only must_not is not supported (ES treats it "
            "as match_all minus exclusions — query that explicitly)")
    if kind == "constant_score":
        if set(spec) - {"filter", "boost"}:
            raise UnsupportedEsQuery(
                f"constant_score keys {set(spec) - {'filter', 'boost'}}")
        terms = _leaf_terms(spec["filter"], "constant_score.filter")
        expr = " OR ".join(terms) if len(terms) > 1 else terms[0]
        return engine.search_constant_score(expr,
                                            float(spec.get("boost", 1.0)),
                                            k)
    if kind == "simple_query_string":
        return engine.search_simple_query_string(
            str(spec["query"]), k,
            default_operator=str(spec.get("default_operator", "or")))
    if kind == "query_string":
        return engine.search_query_string(str(spec["query"]), k)
    if kind == "pinned":
        if set(spec) - {"ids", "organic"}:
            raise UnsupportedEsQuery(
                f"pinned keys {set(spec) - {'ids', 'organic'}}")
        okind, ospec = _one(spec["organic"], "pinned.organic")
        if okind != "match":
            raise UnsupportedEsQuery("pinned.organic must be a match query")
        text = _field_query(ospec, okind)["query"]
        res = engine.search_pinned(str(text),
                                   [int(i) for i in spec["ids"]], k)
        return [(d, s) for d, s, _pinned in res]
    raise UnsupportedEsQuery(f"unsupported query type {kind!r}")


def _auto_fuzziness(token: str) -> int:
    """Lucene AUTO: 0 edits for 1-2 chars, 1 for 3-5, 2 beyond."""
    n = len(token)
    return 0 if n <= 2 else (1 if n <= 5 else 2)


def _fuzzy_boosts(engine, token: str, fuzziness, max_expansions: int,
                  prefix_length: int) -> dict[str, float]:
    """Lucene FuzzyQuery expansion over the index vocabulary: vocab
    terms within ``fuzziness`` edits (Myers — the spellfix kernel),
    sharing the required ``prefix_length``, capped at
    ``max_expansions`` by (distance asc, df desc, term asc) — the
    TopTermsRewrite order. Each expansion carries Lucene's fuzzy boost
    ``1 − d / min(|token|, |term|)``; the boosted scorer then SUMS
    boosted BM25 contributions. Two documented deviations: (a) the
    blending is this engine's additive scorer, not BlendedTermQuery's
    df-blending; (b) distance is classic Levenshtein — a transposition
    counts as 2 edits, where ES's default ``transpositions: true``
    (Damerau) counts 1, so e.g. "srot" does not reach "sort" under
    AUTO here."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq

    from .functions.curation import _encode_ascii, myers_levenshtein

    if not hasattr(engine, "_term_dict_dir"):
        raise UnsupportedEsQuery(
            "fuzzy needs an engine with a local term dictionary")
    fz = (_auto_fuzziness(token) if str(fuzziness).upper() == "AUTO"
          else int(fuzziness))
    td = pq.read_table(engine._term_dict_dir, columns=["term", "df"])
    terms = np.asarray(td["term"].to_pylist(), dtype=object)
    dfv = np.asarray(td["df"].to_pylist()).astype(np.int64)
    if prefix_length:
        pre = token[:prefix_length]
        keep = np.array([str(t).startswith(pre) for t in terms])
        terms, dfv = terms[keep], dfv[keep]
    if len(terms) == 0:
        return {}
    if fz == 0:
        return {token: 1.0} if token in set(terms.tolist()) else {}
    t_codes, t_lens = _encode_ascii(pd.Series(terms), 64)
    p_codes, p_lens = _encode_ascii(pd.Series([token]), 64)
    d = myers_levenshtein(
        np.repeat(p_codes, len(terms), axis=0),
        np.full(len(terms), p_lens[0], dtype=np.int64),
        t_codes, t_lens)
    hit = d <= fz
    if not hit.any():
        return {}
    ht, hd, hdf = terms[hit], d[hit], dfv[hit]
    order = np.lexsort((ht, -hdf, hd))[:max_expansions]
    return {str(ht[i]): 1.0 - float(hd[i]) / min(len(token),
                                                 len(str(ht[i])))
            for i in order}


def _match_all(engine, k: int) -> list[tuple[int, float]]:
    """match_all: every alive doc at constant score 1.0, doc_id
    ascending (Lucene index order for equal scores). Needs the local
    doc universe (a QueryEngine's doclens);
    a sharded fan-out engine raises rather than guessing."""
    if not hasattr(engine, "doclens"):
        raise UnsupportedEsQuery(
            "match_all needs an engine with a local doc universe "
            "(QueryEngine); use a concrete query on sharded engines")
    return [(int(d), 1.0) for d in engine._alive_ids()[:k]]


def es_search(engine, body: dict) -> dict:
    """Run an ES-shaped ``_search`` request body against an open
    engine. Returns an ES-shaped response dict (see module doc)."""
    if not isinstance(body, dict):
        raise UnsupportedEsQuery("body must be a dict")
    extra = set(body) - _TOP_KEYS
    if extra:
        raise UnsupportedEsQuery(f"unsupported request keys {extra}")
    size = int(body.get("size", 10))
    offset = int(body.get("from", 0))
    if size < 0 or offset < 0:
        raise UnsupportedEsQuery("size/from must be non-negative")
    q = body.get("query", {"match_all": {}})
    t0 = time.perf_counter()
    if "sort" in body:
        _check_sort(body["sort"])
    if "search_after" in body:
        # ES cursor pagination: strictly after [score, id] in the
        # (score desc, id asc) order; ES rejects combining it with
        # `from`, and so do we
        if offset:
            raise UnsupportedEsQuery(
                "search_after cannot be combined with from (ES rule)")
        kind, spec = _one(q, "query")
        if kind != "match":
            raise UnsupportedEsQuery(
                "search_after supports the match query here")
        fq = _field_query(spec, kind)
        if set(fq) - {"query"}:
            raise UnsupportedEsQuery(
                "search_after supports plain OR match only")
        cursor = body["search_after"]
        if not (isinstance(cursor, (list, tuple)) and len(cursor) == 2):
            raise UnsupportedEsQuery("search_after must be [score, id]")
        ranked = engine.search_after(str(fq["query"]),
                                     float(cursor[0]), int(cursor[1]),
                                     size)
    else:
        ranked = _run_query(engine, q, offset + size)
    if "min_score" in body:
        ms = float(body["min_score"])
        ranked = [(d, s) for d, s in ranked if s >= ms]
    page = ranked[offset:offset + size]
    took = int((time.perf_counter() - t0) * 1000)
    hits = [{"_id": str(d), "_score": float(s)} for d, s in page]
    if body.get("explain"):
        # ES "explain": true — per-hit score breakdown. Rides
        # QueryEngine.explain, whose total is BITWISE the search score
        # (the repo's pinned contract), so _explanation.value ==
        # _score exactly. Supported for the plain-BM25 query kinds the
        # explain surface covers.
        kind, spec = _one(q, "query")
        if kind == "match":
            fq = _field_query(spec, kind)
            if (set(fq) - {"query"}):
                raise UnsupportedEsQuery(
                    "explain supports plain OR match only")
            text = str(fq["query"])
        elif kind == "term":
            text = str(_field_query(spec, kind)["query"])
        else:
            raise UnsupportedEsQuery(
                f"explain not supported for query type {kind!r}")
        for h in hits:
            ex = engine.explain(text, int(h["_id"]))
            h["_explanation"] = {
                "value": ex["score"],
                "description": f"sum of {ex['scorer']} term "
                               "contributions",
                "details": [{"value": t["contribution"],
                             "description": f"weight(text:{t['term']}) "
                                            f"[df={t['df']}, tf={t['tf']}]"}
                            for t in ex["terms"]],
            }
    return {
        "took": took,
        "timed_out": False,
        "hits": {
            "total": {"value": len(ranked), "relation":
                      "gte" if len(ranked) == offset + size else "eq"},
            "max_score": (float(ranked[0][1]) if ranked else None),
            "hits": hits,
        },
    }
