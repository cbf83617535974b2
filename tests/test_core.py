"""Two-phase matching and the similarity score: contracts, ties, arithmetic."""

import math
import random

import numpy as np
import pytest

from dlcss import (
    Coordinate,
    DlcssSegment,
    DomainError,
    NO_OVERLAP,
    Route,
    compute_dlcss,
    distance,
    metric_sweep,
    similarity_metric,
)
from dlcss import core, geo

from reference import reference_segments, reference_sm
from test_geo import LAT_STEP_M, pairwise_distances_m, random_route


def corridor(n, rid, lat=50.75, lon0=6.0, step=0.01):
    return Route(rid, tuple(Coordinate(lat, lon0 + step * k) for k in range(n)))


def column_minima(a, r):
    """Phase one by brute force: per request point, the argmin row and its distance."""
    d = pairwise_distances_m(a, r)
    rows = np.argmin(d, axis=0)
    return rows.tolist(), d[rows, np.arange(d.shape[1])].tolist()


def cells(res):
    return [(s.distance_m, s.a_index, s.r_index) for s in res.segments]


def test_package_exports_resolve():
    import dlcss

    assert [name for name in dlcss.__all__ if not hasattr(dlcss, name)] == []
    namespace = {}
    exec("from dlcss import *", namespace)
    assert set(dlcss.__all__) <= namespace.keys()


def test_identity_routes_score_zero():
    rng = random.Random(1)
    for _ in range(20):
        a = random_route(rng, rng.randint(2, 15), "a")
        res = compute_dlcss(a, Route("copy", a.points))
        assert res.sm == 0.0
        assert res.sum_segments_m == 0.0
        assert [(s.distance_m, s.a_index, s.r_index) for s in res.segments] == [
            (0.0, k, k) for k in range(len(a.points))
        ]


def test_nearest_assignment_sets_one_cell_per_column():
    # r[j] sits beside a[j], so every column's cell becomes a segment
    a = corridor(6, "a")
    r = Route("r", tuple(Coordinate(p.lat + 0.0005 * (k % 3 + 1), p.lon)
                         for k, p in enumerate(a.points)))
    rows, dists = column_minima(a, r)
    assert rows == list(range(6))
    assert cells(compute_dlcss(a, r)) == list(zip(dists, rows, range(6)))
    # on random routes too, each segment is its column's minimum on the argmin row
    rng = random.Random(2)
    for _ in range(30):
        a = random_route(rng, rng.randint(2, 12), "a")
        r = random_route(rng, rng.randint(2, 12), "r")
        rows, dists = column_minima(a, r)
        segs = cells(compute_dlcss(a, r))
        assert len({j for _, _, j in segs}) == len(segs)
        assert all((d, i) == (dists[j], rows[j]) for d, i, j in segs)


def test_nearest_assignment_tie_prefers_smaller_vehicle_index():
    p = Coordinate(50.75, 6.0)
    q = Coordinate(50.75, 6.1)
    a = Route("a", (p, p, q))  # duplicate vehicle point forces a tie
    r = Route("r", (Coordinate(50.751, 6.0), q))
    assert [(s.a_index, s.r_index) for s in compute_dlcss(a, r).segments] == [(0, 0), (2, 1)]


def test_set_cell_lies_on_argmin_row():
    a = Route("a", (Coordinate(50.75, 6.0), Coordinate(50.75, 6.01)))
    r = Route("r", (Coordinate(50.751, 6.0), Coordinate(50.751, 6.01)))
    segs = compute_dlcss(a, r).segments
    assert [(s.a_index, s.r_index) for s in segs] == [(0, 0), (1, 1)]
    assert segs[0].distance_m > 0.0


def test_perpendicular_offset_segment_values():
    a = corridor(3, "a")
    r = Route(
        "r",
        (Coordinate(50.751, 6.0), Coordinate(50.751, 6.01)),
    )
    res = compute_dlcss(a, r)
    assert len(res.segments) == 2
    for s in res.segments:
        assert math.isclose(s.distance_m, LAT_STEP_M, rel_tol=1e-4)


def test_single_set_cell_yields_single_segment():
    # both request points sit beside a[2], r[0] the closer: row 2's cell at j=0 wins
    a = corridor(4, "a")
    p = a.points[2]
    r = Route("r", (Coordinate(p.lat + 0.0001, p.lon), Coordinate(p.lat + 0.0002, p.lon)))
    res = compute_dlcss(a, r)
    assert cells(res) == [(distance(p, r.points[0]), 2, 0)]
    assert res.sm == NO_OVERLAP


def test_phase_two_tie_prefers_smaller_request_index():
    z = Coordinate(50.751, 6.0)
    a = Route("a", (Coordinate(50.75, 6.0), Coordinate(50.75, 6.2)))
    r = Route("r", (z, z))  # both request points tie on row 0
    segs = compute_dlcss(a, r).segments
    assert len(segs) == 1
    assert segs[0].r_index == 0


def test_rows_behind_cursor_are_skipped():
    # row 0 consumes j=1, moving the cursor past row 1's only candidate, j=0
    a = corridor(2, "a")
    r = Route("r", (Coordinate(50.751, 6.01), Coordinate(50.751, 6.0)))
    assert column_minima(a, r)[0] == [1, 0]
    assert [(s.a_index, s.r_index) for s in compute_dlcss(a, r).segments] == [(0, 1)]


def test_temporal_order_on_random_pairs():
    rng = random.Random(3)
    for _ in range(100):
        a = random_route(rng, rng.randint(2, 12), "a")
        r = random_route(rng, rng.randint(2, 12), "r")
        segs = compute_dlcss(a, r).segments
        assert all(x.a_index < y.a_index for x, y in zip(segs, segs[1:]))
        assert all(x.r_index <= y.r_index for x, y in zip(segs, segs[1:]))


def test_per_row_minimality_replay():
    """Each emitted distance is the row minimum over candidates at or past
    the cursor in force when its row was processed."""
    rng = random.Random(4)
    for _ in range(50):
        a = random_route(rng, rng.randint(2, 10), "a")
        r = random_route(rng, rng.randint(2, 10), "r")
        segs = compute_dlcss(a, r).segments
        start_j = 0
        by_row = {}
        for j, (i, v) in enumerate(zip(*column_minima(a, r))):
            by_row.setdefault(i, []).append((j, v))
        for s in segs:
            candidates = [v for j, v in by_row[s.a_index] if j >= start_j]
            assert s.distance_m == min(candidates)
            start_j = s.r_index


def test_similarity_metric_arithmetic():
    a = corridor(3, "a")
    half = [DlcssSegment(50.0, 0, 0), DlcssSegment(50.0, 1, 1)]
    # span covers half the route: factor 2, sum 100 -> 200
    assert math.isclose(similarity_metric(half, a), 200.0, rel_tol=1e-12)
    full = [DlcssSegment(30.0, 0, 0), DlcssSegment(12.5, 2, 1)]
    # full-span factor is exactly 1
    assert similarity_metric(full, a) == 42.5
    zeros = [DlcssSegment(0.0, 0, 0), DlcssSegment(0.0, 2, 1)]
    assert similarity_metric(zeros, a) == 0.0


def test_sums_run_left_to_right():
    """Ten 0.1 m segments over a full-span vehicle score the left-to-right sum,
    0.9999999999999999, in both input forms. Builtin ``sum`` gives it only
    before Python 3.12, and 1.0 after."""
    a = corridor(10, "a")
    tenths = [(0.1, k, k) for k in range(10)]
    assert geo.left_sum([0.1] * 10) == 0.9999999999999999
    assert similarity_metric(tenths, a) == reference_sm(tenths, a) == 0.9999999999999999
    columns = core.SegmentColumns(
        np.array([0]), np.array([10]), np.full(10, 0.1), np.arange(10), np.arange(10)
    )
    assert similarity_metric(columns, core.VehicleLegs.of([a])).tolist() == [0.9999999999999999]


def test_similarity_metric_rejects_empty():
    a = corridor(3, "a")
    with pytest.raises(DomainError):
        similarity_metric([], a)
    one_empty = core.SegmentColumns(*(np.array(x) for x in ([0, 0], [1, 0], [5.0], [1], [0])))
    with pytest.raises(DomainError):
        similarity_metric(one_empty, core.VehicleLegs.of([a]))


def test_single_point_span_scores_no_overlap():
    a = Route("a", (Coordinate(50.75, 6.0), Coordinate(50.75, 6.1)))
    # both request points sit next to A's first point only
    r = Route("r", (Coordinate(50.76, 6.0), Coordinate(50.759, 6.0)))
    res = compute_dlcss(a, r)
    assert len(res.segments) == 1
    assert res.l_sub_a_m == 0.0
    assert res.sm == NO_OVERLAP
    assert math.isinf(NO_OVERLAP) and NO_OVERLAP > 1e300


def test_result_fields_are_consistent():
    rng = random.Random(5)
    for _ in range(40):
        a = random_route(rng, rng.randint(2, 10), "a")
        r = random_route(rng, rng.randint(2, 10), "r")
        res = compute_dlcss(a, r)
        assert res.sum_segments_m == sum(s.distance_m for s in res.segments)
        if math.isfinite(res.sm):
            assert 0.0 < res.l_sub_a_m <= res.l_a_m
            assert res.sm == (res.l_a_m / res.l_sub_a_m) * res.sum_segments_m


def test_parallel_offset_full_span_sum_equals_score():
    a = corridor(5, "a")
    r = Route("r", tuple(Coordinate(p.lat + 0.001, p.lon) for p in a.points))
    res = compute_dlcss(a, r)
    assert len(res.segments) == 5
    for s in res.segments:
        assert math.isclose(s.distance_m, LAT_STEP_M, rel_tol=1e-4)
    assert res.l_sub_a_m == res.l_a_m
    assert res.sm == res.sum_segments_m


def test_translation_monotonicity():
    a = corridor(6, "a")
    sums = []
    for k in range(1, 7):
        r = Route("r", tuple(Coordinate(p.lat + 0.001 * k, p.lon) for p in a.points))
        sums.append(compute_dlcss(a, r).sum_segments_m)
    assert all(x <= y for x, y in zip(sums, sums[1:]))


def test_matches_reference_transliteration():
    rng = random.Random(6)
    for _ in range(50):
        a = random_route(rng, rng.randint(2, 10), "a")
        r = random_route(rng, rng.randint(2, 10), "r")
        res = compute_dlcss(a, r)
        ref = reference_segments(a, r)
        assert [(s.distance_m, s.a_index, s.r_index) for s in res.segments] == ref
        assert res.sm == reference_sm(ref, a)


def test_one_matrix_evaluation_per_compute(monkeypatch):
    """One phase-one tile per pair while I * J fits the budget; the exact
    distance runs once per tile, on each column's one candidate here."""
    calls = []
    original = core.geo.distances

    def counting(p, q):
        d = original(p, q)
        calls.append(d.shape)
        return d

    rng = random.Random(7)
    a = random_route(rng, 8, "a")
    r = random_route(rng, 5, "r")
    big_a = random_route(rng, 128, "a")
    big_r = random_route(rng, core.TILE_CELLS // 128, "r")
    for route in (a, big_a):
        route.leg_lengths_m  # cached legs: only phase one is counted below
    monkeypatch.setattr(core.geo, "distances", counting)
    compute_dlcss(a, r)
    assert calls == [(5,)]
    # one block also when I * J fills the tile budget exactly
    compute_dlcss(big_a, big_r)
    assert calls[1:] == [(core.TILE_CELLS // 128,)]


def test_metric_sweep_examples():
    grid = metric_sweep([1.0], [0.0, 10.0, 20.0])
    assert np.array_equal(grid, [[0.0, 10.0, 20.0]])
    assert metric_sweep([0.25], [10.0])[0, 0] == 40.0


def test_metric_sweep_shape_and_monotonicity():
    fracs = [0.1 * k for k in range(1, 11)]
    sums = [100.0 * k for k in range(10)]
    grid = metric_sweep(fracs, sums)
    assert grid.shape == (10, 10)
    # increasing sums grow the score; increasing overlap shrinks it
    assert (np.diff(grid, axis=1) > 0).all()
    assert (np.diff(grid[:, 1:], axis=0) < 0).all()


def test_metric_sweep_validation():
    with pytest.raises(DomainError):
        metric_sweep([0.0], [1.0])
    with pytest.raises(DomainError):
        metric_sweep([1.5], [1.0])
    with pytest.raises(DomainError):
        metric_sweep([0.5], [-1.0])
    with pytest.raises(DomainError):
        metric_sweep([[0.5]], [1.0])


@pytest.mark.parametrize(
    "fractions, sums",
    [([math.nan], [1.0]), ([0.5], [math.nan]), ([math.nan, 0.5], [10.0, math.nan])],
)
def test_metric_sweep_rejects_nan(fractions, sums):
    with pytest.raises(DomainError):
        metric_sweep(fractions, sums)
