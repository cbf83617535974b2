"""Pool filtering and ranking decisions."""

import math
import random

import numpy as np
import pytest

from dlcss import (
    Coordinate,
    DEFAULT_THRESHOLD_M,
    DomainError,
    Route,
    compute_dlcss,
    filter_pool,
    rank_candidates,
    score_pair,
)

from test_geo import random_route


def small_pool(seed, n, prefix):
    rng = random.Random(seed)
    return [random_route(rng, rng.randint(3, 9), f"{prefix}{k:02d}") for k in range(n)]


def test_default_threshold_constant():
    assert DEFAULT_THRESHOLD_M == 20_000.0


def test_score_pair_identity_and_definition():
    rng = random.Random(1)
    a = random_route(rng, 8, "a")
    r = random_route(rng, 6, "r")
    assert score_pair(a, a) == 0.0
    assert score_pair(a, r) == compute_dlcss(a, r).sm


def test_score_pair_is_directional():
    a = Route("a", tuple(Coordinate(50.75, 6.0 + 0.01 * k) for k in range(8)))
    r = Route("r", tuple(Coordinate(50.76, 6.02 + 0.01 * k) for k in range(3)))
    assert score_pair(a, r) != score_pair(r, a)


def test_disjoint_routes_score_far_above_default():
    a = Route("a", tuple(Coordinate(50.75, 6.0 + 0.01 * k) for k in range(5)))
    far = Route("far", tuple(Coordinate(49.75, 6.0 + 0.01 * k) for k in range(5)))
    sm = score_pair(a, far)
    assert math.isfinite(sm)
    assert sm > 10 * DEFAULT_THRESHOLD_M


def test_filter_pool_identity_pair():
    a = Route("a", (Coordinate(50.75, 6.0), Coordinate(50.75, 6.01)))
    decisions = filter_pool([a], [a])
    assert len(decisions) == 1
    d = decisions[0]
    assert d.accepted and d.sm == 0.0 and d.threshold == DEFAULT_THRESHOLD_M


def test_filter_pool_cardinality_and_order():
    vehicles = small_pool(2, 2, "v")
    requests = small_pool(3, 2, "r")
    decisions = filter_pool(vehicles, requests)
    assert len(decisions) == 4
    assert [(d.a_id, d.r_id) for d in decisions] == [
        ("v00", "r00"), ("v00", "r01"), ("v01", "r00"), ("v01", "r01")
    ]


def test_filter_pool_empty_pools():
    assert filter_pool([], small_pool(4, 2, "r")) == []
    assert filter_pool(small_pool(4, 2, "v"), []) == []


def test_filter_pool_validation():
    pool = small_pool(5, 2, "p")
    with pytest.raises(DomainError):
        filter_pool(pool, pool, threshold=-5.0)


def test_zero_threshold_accepts_only_exact_zero():
    pool = small_pool(5, 3, "p")
    decisions = filter_pool(pool, pool, threshold=0.0)
    for d in decisions:
        assert d.accepted == (d.sm == 0.0)
    assert sum(d.accepted for d in decisions) == 3  # the self pairs


def test_filter_pool_permutation_invariant():
    vehicles = small_pool(6, 5, "v")
    requests = small_pool(7, 5, "r")
    base = filter_pool(vehicles, requests)
    shuffled = filter_pool(list(reversed(vehicles)), requests[2:] + requests[:2])
    assert shuffled == base


def test_acceptance_monotone_in_threshold():
    pool = small_pool(8, 6, "p")
    sms = [d.sm for d in filter_pool(pool, pool) if math.isfinite(d.sm) and d.sm > 0]
    lo = min(sms)
    for hi in (lo * 2, lo * 10):
        accepted_lo = {(d.a_id, d.r_id) for d in filter_pool(pool, pool, threshold=lo) if d.accepted}
        accepted_hi = {(d.a_id, d.r_id) for d in filter_pool(pool, pool, threshold=hi) if d.accepted}
        assert accepted_lo <= accepted_hi


def test_no_overlap_never_accepted():
    a = Route("a", (Coordinate(50.75, 6.0), Coordinate(50.75, 6.1)))
    r = Route("r", (Coordinate(50.76, 6.0), Coordinate(50.759, 6.0)))
    decisions = filter_pool([a], [r], threshold=1e308)
    assert decisions[0].sm == math.inf
    assert not decisions[0].accepted


def test_rank_candidates_identity_first():
    pool = small_pool(11, 5, "v")
    request = pool[3]
    ranked = rank_candidates(request, pool, k=3)
    assert ranked[0].a_id == request.id
    assert ranked[0].sm == 0.0


def test_rank_candidates_matches_exhaustive_sort():
    pool = small_pool(12, 8, "v")
    rng = random.Random(13)
    request = random_route(rng, 6, "req")
    ranked = rank_candidates(request, pool, k=4)
    exhaustive = sorted(
        ((score_pair(a, request), a.id) for a in pool if math.isfinite(score_pair(a, request)))
    )
    assert [(d.sm, d.a_id) for d in ranked] == exhaustive[:4]


def test_rank_candidates_saturation_and_validation():
    pool = small_pool(14, 3, "v")
    rng = random.Random(15)
    request = random_route(rng, 5, "req")
    ranked = rank_candidates(request, pool, k=10)
    assert len(ranked) <= 3
    with pytest.raises(DomainError):
        rank_candidates(request, pool, k=0)


@pytest.mark.parametrize(
    "k", [1.5, 2.0, True, "2", None, 0, -1, np.True_, np.float64(3.0), np.int64(0)]
)
def test_rank_candidates_rejects_bad_k(k):
    pool = small_pool(17, 3, "v")
    with pytest.raises(DomainError, match="k must be"):
        rank_candidates(pool[0], pool, k=k)


@pytest.mark.parametrize("threshold", [math.nan, -1.0, math.inf, True, np.True_, np.False_])
def test_rank_candidates_rejects_bad_threshold(threshold):
    pool = small_pool(16, 2, "v")
    with pytest.raises(DomainError, match="threshold"):
        rank_candidates(pool[0], pool, k=1, threshold=threshold)


def test_rank_candidates_all_no_overlap_empty():
    a = Route("a", (Coordinate(50.75, 6.0), Coordinate(50.75, 6.1)))
    r = Route("r", (Coordinate(50.76, 6.0), Coordinate(50.759, 6.0)))
    assert rank_candidates(r, [a], k=2) == []
