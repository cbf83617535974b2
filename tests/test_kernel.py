"""The matcher kernel against the brute-force reference, bit for bit.

For any phase-one tile width, ``core.score_requests`` (a vehicle against
many requests) must return exactly the reference sm of every request, and
``compute_dlcss`` (one pair through the same kernel) the reference segments
and sm.
"""

import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from dlcss import NO_OVERLAP, Coordinate, DlcssSegment, Route, compute_dlcss, filter_pool
from dlcss import core, geo

from reference import reference_segments, reference_sm
from test_geo import random_route

#: Points sit on a lattice of ~35-55 m cells, so routes share and repeat points.
LAT0, LON0, STEP = 50.75, 6.08, 0.0005
#: Budgets that put tile edges inside requests, down to one column per tile.
SMALL_BUDGETS = (1, 7, 64)

lattice_points = st.builds(
    lambda i, k: Coordinate(LAT0 + STEP * i, LON0 + STEP * k),
    st.integers(0, 20),
    st.integers(0, 20),
)


@st.composite
def routes(draw, rid):
    n = draw(st.integers(2, 60))  # drawn first: plain lists stay short
    return Route(rid, draw(st.lists(lattice_points, min_size=n, max_size=n)))


@st.composite
def batches(draw):
    """A vehicle and 1-8 requests: random, identical to it, a jittered copy
    (one segment per point, so summation order shows), or near one of its points."""
    a = draw(routes("a"))
    requests = []
    for k in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["random", "identical", "jittered", "one_point"]))
        if kind == "random":
            requests.append(draw(routes(f"r{k}")))
        elif kind == "identical":
            requests.append(Route(f"r{k}", a.points))
        elif kind == "jittered":
            n = len(a.points)
            shifts = draw(st.lists(st.integers(-3, 3), min_size=2 * n, max_size=2 * n))
            requests.append(Route(f"r{k}", [
                Coordinate(p.lat + STEP / 8 * di, p.lon + STEP / 8 * dk)
                for p, di, dk in zip(a.points, shifts[:n], shifts[n:])
            ]))
        else:  # every request point nearest one vehicle point: NO_OVERLAP
            p = a.points[draw(st.integers(0, len(a.points) - 1))]
            n = draw(st.integers(2, 5))
            requests.append(
                Route(f"r{k}", [Coordinate(p.lat + 1e-5 * m, p.lon) for m in range(n)])
            )
    return a, requests


def assert_bit_equal(a, requests):
    want_segments = [reference_segments(a, r) for r in requests]
    want = [reference_sm(segments, a) for segments in want_segments]
    for budget in (core.TILE_CELLS, *SMALL_BUDGETS):
        with mock.patch.object(core, "TILE_CELLS", budget):
            got = core.score_requests(a, requests)
            pairs = [compute_dlcss(a, r) for r in requests]
        assert got == want, budget
        assert all(type(sm) is float for sm in got)
        assert [res.sm for res in pairs] == want, budget
        assert [
            [(s.distance_m, s.a_index, s.r_index) for s in res.segments] for res in pairs
        ] == want_segments, budget


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(batches())
def test_kernel_equals_single_pair_and_reference(batch):
    assert_bit_equal(*batch)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(batches())
def test_kernel_invariants(batch):
    """Segments advance along A strictly and along R never backwards, every sm
    is >= 0, a self-match scores 0.0 unless A has zero length, and the score
    reads DlcssSegments and plain triples alike."""
    a, requests = batch
    scores = core.score_requests(a, requests)
    for segments, sm in zip(core._segments(a, requests), scores):
        rows, cols = [s[1] for s in segments], [s[2] for s in segments]
        assert all(i < k for i, k in zip(rows, rows[1:]))
        assert all(j <= k for j, k in zip(cols, cols[1:]))
        assert sm >= 0.0
        named = [DlcssSegment._make(s) for s in segments]
        assert core.similarity_metric(named, a) == core.similarity_metric(segments, a) == sm
    self_sm = 0.0 if geo.route_length(a) > 0.0 else NO_OVERLAP
    assert core.score_requests(a, [a]) == [self_sm]


def test_kernel_on_random_routes():
    rng = random.Random(21)
    pool = [random_route(rng, rng.randint(2, 60), f"x{k}") for k in range(12)]
    for a in pool[:4]:
        assert_bit_equal(a, pool)


def test_kernel_covers_identity_and_no_overlap():
    a = Route("a", [Coordinate(LAT0, LON0 + STEP * k) for k in range(6)])
    near_one = Route("n", [Coordinate(LAT0 + 1e-5, LON0), Coordinate(LAT0 + 2e-5, LON0)])
    requests = [a, near_one, Route("b", a.points[::-1])]
    assert core.score_requests(a, requests)[:2] == [0.0, NO_OVERLAP]
    assert_bit_equal(a, requests)


def test_kernel_without_requests():
    a = Route("a", [Coordinate(LAT0, LON0), Coordinate(LAT0, LON0 + STEP)])
    assert core.score_requests(a, []) == []


def _h(p, q):
    return geo._haversine_h(*geo._point_trig(p.lat, p.lon), *geo._point_trig(q.lat, q.lon))


def test_band_keeps_smallest_row_among_clipped_ties():
    """Rows 0 and 1 sit 1e-8 degrees west and east of the request point.
    Both computed h are negative, so both d clip to 0.0: row 0 wins, though
    an argmin on h would pick row 1."""
    lat, lon = 50.753096, 6.0884945
    r = Route("r", [Coordinate(lat, lon)] * 2)
    a = Route("a", [Coordinate(lat, lon - 1e-8), Coordinate(lat, lon + 1e-8)])
    h0, h1 = _h(a.points[0], r.points[0]), _h(a.points[1], r.points[0])
    assert h1 < h0 < 0.0
    assert [(s.distance_m, s.a_index, s.r_index) for s in compute_dlcss(a, r).segments] == [
        (0.0, 0, 0)
    ]
    assert_bit_equal(a, [r])


def test_band_keeps_same_point_whose_h_is_not_zero():
    """The same-point cell (row 1) has h = 7.8e-17 and d = 0 by the mask;
    row 0, 1e-8 degrees away, has a smaller h but a positive d."""
    x = Coordinate(50.7564247, 6.0898036)
    a = Route("a", [Coordinate(x.lat, 6.08980361), x])
    r = Route("r", [x, x])
    assert 0.0 < _h(a.points[0], x) < _h(x, x)
    res = compute_dlcss(a, r)
    assert [(s.distance_m, s.a_index, s.r_index) for s in res.segments] == [(0.0, 1, 0)]
    assert_bit_equal(a, [r])


def lattice_route(rng, rid):
    n = rng.randint(2, 20)
    return Route(rid, [
        Coordinate(LAT0 + STEP * rng.randint(0, 20), LON0 + STEP * rng.randint(0, 20))
        for _ in range(n)
    ])


def test_filter_pool_jobs_split_whole_vehicles():
    rng = random.Random(22)
    vehicles = [lattice_route(rng, f"v{k}") for k in range(5)]
    requests = [lattice_route(rng, f"r{k}") for k in range(7)]
    serial = filter_pool(vehicles, requests)
    assert [(d.a_id, d.r_id, d.sm) for d in serial] == [
        (a.id, r.id, compute_dlcss(a, r).sm) for a in vehicles for r in requests
    ]
