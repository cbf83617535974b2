"""The matcher kernel against the brute-force reference, bit for bit.

For any phase-one tile width, ``core.score_requests`` (a vehicle against
many requests) must return exactly the reference sm of every request, and
``compute_dlcss`` (one pair through the same kernel) the reference segments
and sm. ``core.score_table`` must do the same on both phase-two paths, for
any block size and mask, and ``similarity_metric``'s columnar form must score
every pair of a block as its one-pair form does.
"""

import random
from unittest import mock

import numpy as np
import pytest
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
def routes(draw, rid, max_points=60):
    n = draw(st.integers(2, max_points))  # drawn first: plain lists stay short
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
        with mock.patch.object(core, "TILE_CELLS", budget), \
                mock.patch.object(core, "BATCH_MIN_PAIRS", 1):
            assert core.score_requests(a, requests) == want, budget
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


lattice_indices = st.tuples(st.integers(0, 20), st.integers(0, 20))


@st.composite
def tie_cases(draw):
    """Vehicle and request points for ``_phase_one``: request lattice points,
    and vehicle points mirrored around some of them (equal or nearly equal
    distances), random lattice points, repeats of earlier points, and
    sometimes a single row."""
    targets = draw(st.lists(lattice_indices, min_size=1, max_size=30))
    rows = []
    for i, k in draw(st.lists(st.sampled_from(targets), min_size=1, max_size=6)):
        di, dk = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        rows += [(i + di, k + dk), (i - di, k - dk), (i + di, k - dk), (i - di, k + dk)]
    rows = draw(st.permutations(rows + draw(st.lists(lattice_indices, max_size=8))))
    rows += draw(st.lists(st.sampled_from(rows), max_size=6))  # repeated vehicle points
    if draw(st.booleans()):
        rows = rows[:1]
    a, r = ([Coordinate(LAT0 + STEP * i, LON0 + STEP * k) for i, k in x] for x in (rows, targets))
    return a, r


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(tie_cases())
def test_phase_one_equals_brute_force_on_ties(case):
    """Per column, the lexicographic minimum of (geo.distance, row)."""
    a, r = case
    want = [min((geo.distance(x, y), i) for i, x in enumerate(a)) for y in r]
    p, q = (Route("x", pts * 2).point_array[:, : len(pts)] for pts in (a, r))
    for budget in (core.TILE_CELLS, *SMALL_BUDGETS):
        with mock.patch.object(core, "TILE_CELLS", budget):
            rows, dists = core._phase_one(p, core._unit_vectors(p), q, core._unit_vectors(q))
        assert rows.tolist() == [i for _, i in want], budget
        assert dists.tobytes() == np.array([d for d, _ in want]).tobytes(), budget


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


#: (TILE_CELLS, BLOCK_COLUMNS): the defaults, then blocks that split a vehicle's
#: requests, and a pair's columns over several tiles.
TABLE_BUDGETS = ((core.TILE_CELLS, core.BLOCK_COLUMNS), *zip(SMALL_BUDGETS, SMALL_BUDGETS))
#: BATCH_MIN_PAIRS that put every call on one phase-two path: batched, per request.
PATHS = (1, 10**9)


@st.composite
def tables(draw):
    """1-4 vehicles, 1-6 requests (some copies of a vehicle or of an earlier
    request, some reversed) and a mask (None: every pair) whose rows may be empty."""
    vehicles = [draw(routes(f"v{k}", 30)) for k in range(draw(st.integers(1, 4)))]
    requests = []
    for k in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["random", "copy", "reversed"]))
        if kind == "random":
            requests.append(draw(routes(f"r{k}", 30)))
        else:
            points = draw(st.sampled_from(vehicles + requests)).points
            requests.append(Route(f"r{k}", points[::-1] if kind == "reversed" else points))
    cells = st.lists(st.booleans(), min_size=len(requests), max_size=len(requests))
    rows = st.lists(cells, min_size=len(vehicles), max_size=len(vehicles))
    mask = draw(st.none() | rows)
    return vehicles, requests, None if mask is None else np.array(mask, dtype=bool)


def reference_table(vehicles, requests, mask):
    """The reference sm where ``mask``, NaN elsewhere, and the masked pairs' segments."""
    want = np.full((len(vehicles), len(requests)), np.nan)
    segments = []
    for i, j in zip(*np.nonzero(mask)):
        segments.append(reference_segments(vehicles[i], requests[j]))
        want[i, j] = reference_sm(segments[-1], vehicles[i])
    return want, segments


def column_segments(vehicles, requests, mask):
    """``_table_segments``' columns read back as one triple list per pair, after
    checking that the pairs' vehicles are the mask's rows in row-major order."""
    blocks = list(core._table_segments(vehicles, requests, mask))
    assert [v for c in blocks for v in c.vehicle.tolist()] == np.nonzero(mask)[0].tolist()
    out = []
    for c in blocks:
        triples = list(zip(c.distance_m.tolist(), c.a_index.tolist(), c.r_index.tolist()))
        bounds = np.cumsum(c.count).tolist()
        out.extend(triples[start:stop] for start, stop in zip([0, *bounds], bounds))
    return out


def assert_table_bit_equal(vehicles, requests, mask=None):
    full = np.ones((len(vehicles), len(requests)), bool) if mask is None else mask
    want, want_segments = reference_table(vehicles, requests, full)
    for tile, block in TABLE_BUDGETS:
        with mock.patch.object(core, "TILE_CELLS", tile), \
                mock.patch.object(core, "BLOCK_COLUMNS", block):
            for path in PATHS:
                with mock.patch.object(core, "BATCH_MIN_PAIRS", path):
                    got = core.score_table(vehicles, requests, mask)
                assert got.tobytes() == want.tobytes(), (tile, block, path)
            batched = column_segments(vehicles, requests, full)
        assert batched == want_segments, (tile, block)
        assert all(type(x) is t for s in batched for seg in s for x, t in zip(seg, (float, int, int)))
    walked = [
        s
        for i, row in enumerate(full)
        if row.any()
        for s in core._segments(vehicles[i], [requests[j] for j in np.flatnonzero(row)])
    ]
    assert walked == want_segments


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(tables())
def test_table_equals_reference_on_both_paths(table):
    assert_table_bit_equal(*table)


def test_table_on_random_routes_with_a_sparse_mask():
    rng = random.Random(23)
    pool = [random_route(rng, rng.randint(2, 30), f"x{k}") for k in range(9)]
    mask = np.array([[rng.random() < 0.3 for _ in pool] for _ in pool[:6]])
    mask[2] = False  # a vehicle without pairs
    assert_table_bit_equal(pool[:6], pool, mask)


def test_table_with_signed_zero_and_repeated_points():
    """(0.0, 0.0) and (-0.0, -0.0) are the same place; a request may repeat a point."""
    z, nz = Coordinate(0.0, 0.0), Coordinate(-0.0, -0.0)
    east = Coordinate(0.0, 0.001)
    vehicles = [Route("a", [nz, east, Coordinate(0.001, 0.001)]), Route("b", [east, z])]
    requests = [Route("p", [z, z, east]), Route("n", [nz, east, nz]), Route("e", [east, east])]
    assert_table_bit_equal(vehicles, requests)


def test_pair_whose_row_picks_step_back_twice():
    """Vehicle rows 0-2 lie 100 m apart; request point j lies near row ``near[j]``,
    ``north[j]`` metres off. Row 1's best (j=0) and row 2's best (j=1) fall
    behind row 0's pick (j=2), and row 2's next (j=3) behind row 1's (j=4):
    the batched walk accepts one row per round, in three rounds."""
    step = 100.0 / 111_195.0  # degrees of latitude per 100 m
    a = Route("a", [Coordinate(LAT0, LON0 + k * step * 1.6) for k in range(3)])
    near, north = (1, 2, 0, 2, 1, 2), (1.0, 1.0, 1.0, 5.0, 5.0, 10.0)
    r = Route("r", [
        Coordinate(LAT0 + m / 111_195.0, a.points[i].lon) for i, m in zip(near, north)
    ])
    want = reference_segments(a, r)
    assert [(i, j) for _, i, j in want] == [(0, 2), (1, 4), (2, 5)]
    assert column_segments([a], [r], np.ones((1, 1), bool)) == [want]
    assert_table_bit_equal([a, r], [r, a])


def test_small_calls_walk_each_request():
    """Below BATCH_MIN_PAIRS pairs, as one vehicle against a meeting search's
    13 trial routes, no batched phase two runs."""
    rng = random.Random(24)
    a = lattice_route(rng, "a")
    small = [lattice_route(rng, f"r{k}") for k in range(13)]
    assert 13 < core.BATCH_MIN_PAIRS
    with mock.patch.object(core, "_table_segments", side_effect=AssertionError):
        assert core.score_requests(a, small) == [compute_dlcss(a, r).sm for r in small]
        with pytest.raises(AssertionError):
            core.score_table([a], small * core.BATCH_MIN_PAIRS)


#: Segment distances: zero, repeated values, and arbitrary ones whose sum rounds.
segment_distances = st.sampled_from([0.0, 0.1, 37.5]) | st.floats(0.0, 5e3)


@st.composite
def column_blocks(draw):
    """1-4 vehicles (some of zero length: one point repeated) and 1-12 pairs of
    them. A pair's segments sit at one vehicle point (NO_OVERLAP), at every
    point, or at some, so that counts in a block differ widely."""
    vehicles = []
    for k in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            vehicles.append(draw(routes(f"v{k}")))
        else:
            vehicles.append(Route(f"v{k}", [draw(lattice_points)] * draw(st.integers(2, 6))))
    pairs = []
    for _ in range(draw(st.integers(1, 12))):
        v = draw(st.integers(0, len(vehicles) - 1))
        n = len(vehicles[v].points)
        kind = draw(st.sampled_from(["one", "every", "some"]))
        if kind == "one":
            rows = [draw(st.integers(0, n - 1))]
        elif kind == "every":
            rows = list(range(n))
        else:
            rows = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
        dists = draw(st.lists(segment_distances, min_size=len(rows), max_size=len(rows)))
        pairs.append((v, [(d, i, j) for j, (d, i) in enumerate(zip(dists, rows))]))
    return vehicles, pairs


def as_columns(pairs):
    segments = [s for _, pair in pairs for s in pair]
    return core.SegmentColumns(
        np.array([v for v, _ in pairs]),
        np.array([len(pair) for _, pair in pairs]),
        *(np.array(x) for x in zip(*segments)),
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(column_blocks())
def test_columnar_score_equals_one_pair_form(block):
    """A block's columns score every pair exactly as its segment list does."""
    vehicles, pairs = block
    got = core.similarity_metric(as_columns(pairs), core.VehicleLegs.of(vehicles))
    want = [core.similarity_metric(segments, vehicles[v]) for v, segments in pairs]
    assert got.dtype == np.float64
    assert got.tobytes() == np.array(want).tobytes()
    assert want == [reference_sm(segments, vehicles[v]) for v, segments in pairs]


def test_table_rejects_a_mask_of_another_shape():
    a = Route("a", [Coordinate(LAT0, LON0), Coordinate(LAT0, LON0 + STEP)])
    with pytest.raises(core.DomainError, match="mask shape"):
        core.score_table([a], [a, a], np.ones((2, 1), bool))
