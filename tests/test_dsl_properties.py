"""Property tests for the session-4 query surfaces against ONE shared
index over a small real corpus: hypothesis drives random boolean
expression trees (engine set algebra vs per-doc term-set evaluation)
and random ordered-span term sequences (greedy chain vs exhaustive
chain enumeration)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stacksearch_ray.corpus import generate_corpus, write_corpus
from stacksearch_ray.schema import doc_id_for
from stacksearch_ray.text import clean_query

N_DOCS = 200


@pytest.fixture(scope="module")
def dsl_index(ray_session, tmp_path_factory):
    from stacksearch_ray.build import build_index
    from stacksearch_ray.query import QueryEngine

    root = tmp_path_factory.mktemp("dslprop")
    corpus_dir = str(root / "corpus")
    index_dir = str(root / "index")
    write_corpus(corpus_dir, N_DOCS, rows_per_file=50)
    build_index(corpus_dir, index_dir, num_shards=4,
                store_positions=True)
    tbl = generate_corpus(N_DOCS)
    toks = {}
    for i in range(N_DOCS):
        did = doc_id_for(tbl["repo"][i].as_py(), tbl["path"][i].as_py(),
                         tbl["commit"][i].as_py())
        toks[did] = clean_query(tbl["content"][i].as_py(), max_tokens=None)
    # an 8-term probe vocab spanning common and rare
    from collections import Counter
    cnt = Counter(t for ts in toks.values() for t in ts)
    common = [t for t, _ in cnt.most_common(4)]
    rare = [t for t, _ in cnt.most_common()[-4:]]
    return QueryEngine(index_dir), toks, common + rare


# ---- boolean DSL: random expression trees ----

def _expr(depth):
    leaf = st.integers(0, 7)  # index into the probe vocab
    if depth == 0:
        return st.tuples(st.just("t"), leaf)
    sub = _expr(depth - 1)
    return st.one_of(
        st.tuples(st.just("t"), leaf),
        st.tuples(st.just("not"), sub),
        st.tuples(st.just("and"), sub, sub),
        st.tuples(st.just("or"), sub, sub),
    )


def _render(node, vocab):
    kind = node[0]
    if kind == "t":
        return vocab[node[1]]
    if kind == "not":
        return f"NOT ({_render(node[1], vocab)})"
    op = "AND" if kind == "and" else "OR"
    return (f"({_render(node[1], vocab)}) {op} "
            f"({_render(node[2], vocab)})")


def _eval(node, vocab, term_set):
    kind = node[0]
    if kind == "t":
        return vocab[node[1]] in term_set
    if kind == "not":
        return not _eval(node[1], vocab, term_set)
    a = _eval(node[1], vocab, term_set)
    b = _eval(node[2], vocab, term_set)
    return (a and b) if kind == "and" else (a or b)


@settings(max_examples=120, deadline=None)
@given(_expr(3))
def test_boolean_dsl_random_trees(dsl_index, tree):
    eng, toks, vocab = dsl_index
    got = eng.search_boolean_dsl(_render(tree, vocab)).tolist()
    want = sorted(d for d, ts in toks.items()
                  if _eval(tree, vocab, set(ts)))
    assert got == want


# ---- ordered spans: random term sequences (repeats allowed) ----
# scalar reference: per-start greedy chain with bisect (the vectorized
# packed kernel must match this spec; greedy == exhaustive optimum is
# separately pinned by test_wave9's enumeration on real docs)

def _brute_span(seq, terms):
    import bisect

    occ = {t: [i for i, w in enumerate(seq) if w == t]
           for t in set(terms)}
    if any(not occ[t] for t in terms):
        return None
    best = None
    for s in occ[terms[0]]:
        prev, ok = s, True
        for t in terms[1:]:
            lst = occ[t]
            j = bisect.bisect_right(lst, prev)
            if j == len(lst):
                ok = False
                break
            prev = lst[j]
        if ok:
            span = prev - s + 1
            best = span if best is None or span < best else best
    return best


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 7), min_size=1, max_size=4))
def test_ordered_spans_random_sequences(dsl_index, term_idx):
    eng, toks, vocab = dsl_index
    terms = [vocab[i] for i in term_idx]
    ids, spans = eng.min_ordered_spans(terms)
    got = dict(zip(ids.tolist(), spans.tolist()))
    want = {}
    for d, seq in toks.items():
        s = _brute_span(seq, terms)
        if s is not None:
            want[d] = s
    assert got == want


# ---- query_string: random trees with phrase / boost / prefix atoms ----
# reference: per-doc matched-set evaluation over token sequences +
# positive-context boost-map collection; scoring identity vs
# search_boosted (whose oracle is separately pinned)

def _qs_atom(depth):
    leaf = st.integers(0, 7)
    boost = st.sampled_from([1.0, 2.0, 2.5])
    slop = st.integers(0, 3)
    if depth == 0:
        return st.one_of(
            st.tuples(st.just("t"), leaf),
            st.tuples(st.just("tb"), leaf, boost),
            st.tuples(st.just("p"), leaf),
            st.tuples(st.just("ph"), leaf, leaf, slop),
        )
    sub = _qs_atom(depth - 1)
    return st.one_of(
        st.tuples(st.just("t"), leaf),
        st.tuples(st.just("tb"), leaf, boost),
        st.tuples(st.just("p"), leaf),
        st.tuples(st.just("ph"), leaf, leaf, slop),
        st.tuples(st.just("not"), sub),
        st.tuples(st.just("and"), sub, sub),
        st.tuples(st.just("or"), sub, sub),
    )


def _qs_render(node, vocab):
    kind = node[0]
    if kind == "t":
        return vocab[node[1]]
    if kind == "tb":
        return f"{vocab[node[1]]}^{node[2]}"
    if kind == "p":
        return vocab[node[1]][:3] + "*"
    if kind == "ph":
        return f'"{vocab[node[1]]} {vocab[node[2]]}"~{node[3]}'
    if kind == "not":
        return f"NOT ({_qs_render(node[1], vocab)})"
    op = "AND" if kind == "and" else "OR"
    return (f"({_qs_render(node[1], vocab)}) {op} "
            f"({_qs_render(node[2], vocab)})")


def _qs_eval(node, vocab, seq, term_set):
    kind = node[0]
    if kind in ("t", "tb"):
        return vocab[node[1]] in term_set
    if kind == "p":
        pre = vocab[node[1]][:3]
        return any(t.startswith(pre) for t in term_set)
    if kind == "ph":
        a, b, slop = vocab[node[1]], vocab[node[2]], node[3]
        s = _brute_span(seq, [a, b])
        return s is not None and s <= 2 + slop
    if kind == "not":
        return not _qs_eval(node[1], vocab, seq, term_set)
    x = _qs_eval(node[1], vocab, seq, term_set)
    y = _qs_eval(node[2], vocab, seq, term_set)
    return (x and y) if kind == "and" else (x or y)


def _qs_boosts(node, vocab, positive, bmap):
    kind = node[0]
    if kind == "t":
        if positive:
            bmap[vocab[node[1]]] = bmap.get(vocab[node[1]], 0.0) + 1.0
    elif kind == "tb":
        if positive:
            t = vocab[node[1]]
            bmap[t] = bmap.get(t, 0.0) + node[2]
    elif kind == "ph":
        if positive:
            for t in (vocab[node[1]], vocab[node[2]]):
                bmap[t] = bmap.get(t, 0.0) + 1.0
    elif kind == "p":
        pass  # prefix atoms never score
    elif kind == "not":
        _qs_boosts(node[1], vocab, not positive, bmap)
    else:
        _qs_boosts(node[1], vocab, positive, bmap)
        _qs_boosts(node[2], vocab, positive, bmap)


@settings(max_examples=60, deadline=None)
@given(_qs_atom(2))
def test_query_string_random_trees(dsl_index, tree):
    eng, toks, vocab = dsl_index
    expr = _qs_render(tree, vocab)
    got = eng.search_query_string(expr, k=N_DOCS + 10)
    want_ids = sorted(d for d, seq in toks.items()
                      if _qs_eval(tree, vocab, seq, set(seq)))
    assert sorted(d for d, _ in got) == want_ids
    bmap = {}
    _qs_boosts(tree, vocab, True, bmap)
    ref = dict(eng.search_boosted(bmap, N_DOCS + 10)) if bmap else {}
    for d, s in got:
        assert s == ref.get(d, 0.0), (expr, d)


# ---- simple_query_string: random levels with MUST_NOT hoisting ----
# reference: an INDEPENDENT per-doc evaluator of the Lucene
# SimpleQueryParser semantics — at each paren level, positives fold
# into AND-runs OR'd together, '-'-negated clauses exclude at the
# level, an empty/no-positive group is an always-False clause (and its
# negation excludes nothing) — compared doc-for-doc with the engine's
# translate-and-search path.

def _sqs_level(depth):
    atom = st.one_of(
        st.tuples(st.just("t"), st.integers(0, 7)),
        st.tuples(st.just("p"), st.integers(0, 7)),
    )
    if depth > 0:
        atom = st.one_of(
            atom, st.tuples(st.just("g"), st.deferred(
                lambda: _sqs_level(depth - 1))))
    item = st.tuples(st.sampled_from([None, "|", "+"]),
                     st.booleans(), atom)
    return st.lists(item, min_size=1, max_size=4)


def _sqs_render(level, vocab):
    parts = []
    for i, (op, neg, atom) in enumerate(level):
        if i > 0 and op is not None:
            parts.append(op)
        parts.append(("-" if neg else "") + _sqs_atom_render(atom, vocab))
    return " ".join(parts)


def _sqs_atom_render(atom, vocab):
    if atom[0] == "t":
        return vocab[atom[1]]
    if atom[0] == "p":
        return vocab[atom[1]][:3] + "*"
    return "(" + _sqs_render(atom[1], vocab) + ")"


def _sqs_eval_atom(atom, vocab, term_set):
    if atom[0] == "t":
        return vocab[atom[1]] in term_set
    if atom[0] == "p":
        pre = vocab[atom[1]][:3]
        return any(t.startswith(pre) for t in term_set)
    return _sqs_eval_level(atom[1], vocab, term_set)


def _sqs_eval_level(level, vocab, term_set, default_op="|"):
    runs, negatives = [], []
    for i, (op, neg, atom) in enumerate(level):
        if neg:
            negatives.append(atom)
            continue
        eff = default_op if (i == 0 or op is None) else op
        if eff == "+" and runs:
            runs[-1].append(atom)
        else:
            runs.append([atom])
    pos = any(all(_sqs_eval_atom(a, vocab, term_set) for a in run)
              for run in runs)
    return pos and not any(_sqs_eval_atom(n, vocab, term_set)
                           for n in negatives)


@settings(max_examples=120, deadline=None)
@given(_sqs_level(2))
def test_simple_query_string_random_levels(dsl_index, level):
    eng, toks, vocab = dsl_index
    qs = _sqs_render(level, vocab)
    res = eng.search_simple_query_string(qs, len(toks))
    got = sorted(d for d, _ in res)
    want = sorted(d for d, ts in toks.items()
                  if ts and _sqs_eval_level(level, vocab, set(ts)))
    assert got == want, qs


# ---- bulk fold: random batches vs a one-op-at-a-time simulator ----

_bulk_op = st.tuples(
    st.sampled_from(["index", "create", "update", "delete"]),
    st.integers(0, 9))


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(0, 9), max_size=6),
       st.lists(_bulk_op, max_size=12))
def test_bulk_fold_random_batches(alive0, raw_ops):
    """fold_bulk_ops == a naive simulator that applies one op at a
    time to a dict-of-docs store, for every random (initial alive set,
    op sequence): per-item results AND the net final state agree."""
    from stacksearch_ray.append import fold_bulk_ops

    ops = [{"op": a, "doc_id": d, "text": f"{a}-{d}-{i}"}
           for i, (a, d) in enumerate(raw_ops)]
    items, final = fold_bulk_ops(ops, set(alive0), "doc_id")

    # naive simulator: store maps id → doc|None; None = deleted
    store = {d: {"doc_id": d, "text": "orig"} for d in alive0}
    want_items = []
    for i, op in enumerate(ops):
        a, d = op["op"], op["doc_id"]
        doc = {k: v for k, v in op.items() if k != "op"}
        exists = store.get(d) is not None and d in store
        if a == "create":
            if exists:
                want_items.append("conflict")
            else:
                store[d] = doc
                want_items.append("created")
        elif a == "index":
            want_items.append("updated" if exists else "created")
            store[d] = doc
        elif a == "update":
            if exists:
                store[d] = doc
                want_items.append("updated")
            else:
                want_items.append("document_missing")
        else:  # delete
            want_items.append("deleted" if exists else "not_found")
            store[d] = None
    assert [it["result"] for it in items] == want_items
    # net effect: every touched id's final doc/delete state agrees
    for d, eff in final.items():
        assert store[d] == eff or (eff is None and store[d] is None)
    # untouched alive ids never appear in the effect map
    assert set(final) <= {d for _, d in raw_ops}
