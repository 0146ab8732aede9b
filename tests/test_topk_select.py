"""The dense top-k tail (``QueryEngine._topk_dense``, and the selective
scorer's direct call of ``query._topk_select``) against a full lexsort
of every live match, derandomized: exact score ties at the k-th score,
non-positive scores under a match mask (a boost or a custom scorer),
scores outside the match mask (min_should_match keeps them), tombstones
and an allowed set, k of 0, 1 and above the match count, and doc spaces
below and above the 16·k positions the sampled threshold needs."""
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stacksearch_ray.query import QueryEngine, _topk_select


def _want(acc, ids, k, hit, live):
    m = acc > 0 if hit is None else hit.copy()
    if live is not None:
        m &= live
    c = np.flatnonzero(m)
    c = c[np.lexsort((ids[c], -acc[c]))][:k]
    return list(zip(ids[c].tolist(), acc[c].tolist()))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 900),
       k=st.one_of(st.sampled_from([0, 1, 10_000]), st.integers(2, 60)),
       plain=st.booleans(), levels=st.integers(1, 8),
       match_share=st.sampled_from([0.01, 0.1, 0.5, 1.0]),
       dead_share=st.sampled_from([0.0, 0.1, 0.6]),
       filtered=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_tail_equals_full_sort(n, k, plain, levels, match_share, dead_share,
                               filtered, seed):
    rng = np.random.default_rng(seed)
    ids = np.arange(n, dtype=np.int64) * 3 + 1    # sorted, gapped doc ids
    match = rng.random(n) < match_share
    # a few score levels, so ties at the k-th score are the rule
    if plain:   # every contribution > 0: matched iff score > 0
        acc = np.where(match, rng.integers(1, levels + 1, n) * 0.5, 0.0)
        hit = None
    else:       # scores ≤ 0 inside the mask, and scores outside it
        acc = rng.integers(-levels, levels + 1, n) * 0.5
        hit = match
    alive = rng.random(n) >= dead_share
    allowed = None
    live = alive
    if filtered:
        # some ids of the index, some it lacks (between and past them)
        allowed = np.unique(np.concatenate((
            rng.choice(ids, size=int(rng.integers(0, n + 1))),
            rng.integers(0, 3 * n + 5, size=5))))
        live = alive & np.isin(ids, allowed)
    eng = object.__new__(QueryEngine)
    eng.doclens = SimpleNamespace(ids=ids, lens=None)
    eng._alive = alive
    acc0, hit0 = acc.copy(), None if hit is None else hit.copy()
    assert eng._topk_dense(acc, hit, k, allowed) == _want(
        acc, ids, k, hit, live)
    # the selective scorer's call: no live mask, positions for ids
    sel = _topk_select(acc, k, hit)
    pos = np.arange(n, dtype=np.int64)
    assert list(zip(sel.tolist(), acc[sel].tolist())) == _want(
        acc, pos, k, hit, None)
    # masking and ordering only: the inputs are untouched
    assert np.array_equal(acc, acc0)
    assert hit is None or np.array_equal(hit, hit0)
