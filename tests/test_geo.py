"""Geometry layer: haversine distances, routes, arc lengths."""

import itertools
import math
import random

import numpy as np
import pytest

from dlcss import (
    Coordinate,
    DomainError,
    EARTH_RADIUS_M,
    Route,
    arc_length_between,
    distance,
    route_length,
)
from dlcss import geo, pools

# 1e-3 degrees of latitude, frozen from this implementation.
LAT_STEP_M = 111.19489024324562


def pairwise_distances_m(a, b):
    """Matrix of distance(a.points[i], b.points[j]), bit-equal to scalar calls."""
    return geo.distances(a.point_array[:, :, None], b.point_array[:, None, :])


def random_route(rng, n, rid="r"):
    lat0 = rng.uniform(50.0, 51.0)
    lon0 = rng.uniform(6.0, 7.0)
    pts = tuple(
        Coordinate(lat0 + rng.uniform(-0.05, 0.05), lon0 + rng.uniform(-0.05, 0.05))
        for _ in range(n)
    )
    return Route(rid, pts)


def test_earth_radius():
    assert EARTH_RADIUS_M == 6_371_000.0


def test_coordinate_validation():
    with pytest.raises(DomainError):
        Coordinate(90.5, 0.0)
    with pytest.raises(DomainError):
        Coordinate(0.0, -180.5)
    with pytest.raises(DomainError):
        Coordinate(float("nan"), 0.0)
    with pytest.raises(DomainError):
        Coordinate(0.0, float("inf"))
    # boundary values are legal
    Coordinate(90.0, 180.0)
    Coordinate(-90.0, -180.0)


def test_coordinate_is_an_immutable_lat_lon_tuple():
    c = Coordinate(50.75, 6.08)
    lat, lon = c
    assert (lat, lon) == (c.lat, c.lon) == (50.75, 6.08)
    assert c == (50.75, 6.08) and hash(c) == hash((50.75, 6.08))
    assert repr(c) == "Coordinate(lat=50.75, lon=6.08)"
    with pytest.raises(AttributeError):
        c.lat = 0.0
    with pytest.raises(AttributeError):
        c.alt = 0.0  # no __dict__
    assert c._replace(lon=7.0) == Coordinate(50.75, 7.0)
    with pytest.raises(DomainError, match="latitude 91.0"):
        c._replace(lat=91.0)
    with pytest.raises(DomainError, match="longitude"):  # out of range, not an OverflowError
        Coordinate(0.0, 10**400)


# the edges of the range, signed zeros, non-finite values, the nearest floats
# outside the range and integers too large for a float
EDGE_VALUES = [
    90.0, -90.0, 180.0, -180.0, 90, -180, 0.0, -0.0, 50.75, 1e-300,
    math.nan, math.inf, -math.inf,
    math.nextafter(90.0, math.inf), math.nextafter(-90.0, -math.inf),
    math.nextafter(180.0, math.inf), math.nextafter(-180.0, -math.inf),
    10**400, -(10**400), 10**308,
]


def outcome(build):
    try:
        return [(repr(lat), repr(lon), type(lat), type(lon)) for lat, lon in build()]
    except (DomainError, OverflowError) as exc:
        return type(exc), str(exc)


def test_coordinates_check_equals_per_point_constructor():
    """One check per point list accepts and rejects what ``Coordinate`` does,
    with the message of the first bad point, latitude before longitude."""
    for v, w in itertools.product(EDGE_VALUES, repeat=2):
        for lats, lons in (
            ([50.0, v, 50.0], [6.0, 6.0, w]),
            ([50.0, 50.0, w], [6.0, v, 6.0]),
            ([v, w], [6.0, 6.0]),
            ([50.0, 50.0], [w, v]),
        ):
            want = outcome(lambda: [Coordinate(float(a), float(b)) for a, b in zip(lats, lons)])
            got = outcome(lambda: zip(*pools._lat_lon([[b, a] for a, b in zip(lats, lons)])))
            assert got == want, (lats, lons)


def test_coordinate_make_validates():
    with pytest.raises(DomainError, match="latitude 91.0 outside"):
        Coordinate._make((91.0, 0.0))
    c = Coordinate._make((50.75, 6.08))
    assert type(c) is Coordinate and c == Coordinate(50.75, 6.08)


def test_route_stores_arrays_and_builds_points_on_read():
    pts = (Coordinate(50.75, 6.08), Coordinate(50, 6), Coordinate(-0.0, 180.0))
    r = Route("r", pts)
    assert r.points == pts and r.point(-1) == pts[-1] and r.point(1) == pts[1]
    assert all(type(p) is Coordinate and type(p.lat) is float for p in r.points)
    assert r == Route("r", [tuple(p) for p in pts]) and hash(r) == hash(("r", pts))
    assert r != Route("s", pts) and r != Route("r", pts[:2]) and r != ("r", pts)
    assert repr(r) == "Route(id='r', points=(Coordinate(lat=50.75, lon=6.08), " \
        "Coordinate(lat=50.0, lon=6.0), Coordinate(lat=-0.0, lon=180.0)))"
    assert not r.point_array.flags.writeable
    with pytest.raises(AttributeError):
        r.id = "s"
    with pytest.raises(AttributeError):
        del r.id


def test_identical_points_distance_zero():
    p = Coordinate(50.123456, 6.654321)
    assert distance(p, p) == 0.0


def test_known_latitude_step():
    a = Coordinate(50.775, 6.083)
    b = Coordinate(50.776, 6.083)
    d = distance(a, b)
    assert d == LAT_STEP_M
    # cross-check against an independent evaluation of the same formula
    assert math.isclose(d, 111.195, rel_tol=1e-4)


def test_quarter_circumference():
    d = distance(Coordinate(0.0, 0.0), Coordinate(0.0, 90.0))
    assert math.isclose(d, math.pi * EARTH_RADIUS_M / 2.0, rel_tol=1e-12)


def test_symmetry_exact():
    rng = random.Random(7)
    for _ in range(200):
        a = Coordinate(rng.uniform(-80, 80), rng.uniform(-179, 179))
        b = Coordinate(rng.uniform(-80, 80), rng.uniform(-179, 179))
        assert distance(a, b) == distance(b, a)


def test_triangle_inequality():
    rng = random.Random(11)
    for _ in range(300):
        lat0, lon0 = rng.uniform(45, 55), rng.uniform(0, 10)
        pts = [
            Coordinate(lat0 + rng.uniform(-0.1, 0.1), lon0 + rng.uniform(-0.1, 0.1))
            for _ in range(3)
        ]
        ab = distance(pts[0], pts[1])
        bc = distance(pts[1], pts[2])
        ac = distance(pts[0], pts[2])
        assert ac <= ab + bc + 1e-9 * max(ab + bc, 1.0)


def test_pairwise_matches_scalar_bitwise():
    """The matrix path must reproduce the scalar path bit for bit; segment
    selection and the transliteration equivalence both depend on it."""
    rng = random.Random(23)
    for trial in range(20):
        a = random_route(rng, rng.randint(2, 40), "a")
        b = random_route(rng, rng.randint(2, 40), "b")
        d = pairwise_distances_m(a, b)
        assert d.shape == (len(a.points), len(b.points))
        for i, pa in enumerate(a.points):
            for j, pb in enumerate(b.points):
                assert d[i, j] == distance(pa, pb)


def test_pairwise_identical_points_zero():
    shared = Coordinate(50.5, 6.5)
    a = Route("a", (shared, Coordinate(50.6, 6.5)))
    b = Route("b", (Coordinate(50.4, 6.4), shared))
    d = pairwise_distances_m(a, b)
    assert d[0, 1] == 0.0
    assert d[0, 0] > 0.0


def test_arcsin_is_position_stable():
    """np.arcsin over an array must equal per-element evaluation; the scalar
    and matrix distance paths share results only while this holds."""
    rng = np.random.default_rng(5)
    h = rng.uniform(0.0, 1.0, size=2000)
    bulk = np.arcsin(h)
    single = np.array([np.arcsin(x) for x in h])
    assert np.array_equal(bulk, single)


def test_leg_lengths_match_scalar_bitwise():
    """The array legs equal one scalar distance call per leg, also for
    identical consecutive points and points 1e-12 to 1e-5 degrees apart."""
    rng = random.Random(29)
    for k in range(6000):
        pts = [Coordinate(rng.uniform(-80.0, 80.0), rng.uniform(-179.0, 179.0))]
        for _ in range(rng.randint(1, 6)):
            p, step = pts[-1], rng.choice([0.0, 1e-12, 1e-9, 1e-7, 1e-5, 0.01, 1.0])
            du, dv = rng.uniform(-1, 1), rng.uniform(-1, 1)
            pts.append(Coordinate(p.lat + step * du, p.lon + step * dv))
        r = Route(f"r{k}", pts)
        legs = r.leg_lengths_m
        assert all(type(x) is float for x in legs)
        assert legs == tuple(distance(a, b) for a, b in zip(pts, pts[1:]))


def test_point_array_equals_point_trig_bitwise():
    """Each column is the point's ``_point_trig`` and its lat, lon, to the bit,
    at the poles, the antimeridian and signed zeros too; rows are C-contiguous."""
    rng = random.Random(30)
    edges = [(90.0, 180.0), (-90.0, -180.0), (-0.0, -0.0), (0.0, -0.0), (90, -180), (-0.0, 180.0)]
    routes = [Route("edges", [Coordinate(*p) for p in edges])] + [
        Route(f"r{k}", [Coordinate(rng.uniform(-90, 90), rng.uniform(-180, 180)) for _ in range(50)])
        for k in range(50)
    ]
    for r in routes:
        want = np.array([(*geo._point_trig(p.lat, p.lon), p.lat, p.lon) for p in r.points]).T
        got = r.point_array
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_route_length_sums_legs_once(monkeypatch):
    r, s = random_route(random.Random(8), 15, "r"), random_route(random.Random(9), 7, "s")
    want = geo.left_sum(r.leg_lengths_m)
    calls = []
    left_sum = geo.left_sum
    monkeypatch.setattr(geo, "left_sum", lambda xs: calls.append(1) or left_sum(xs))
    assert route_length(r) == want and route_length(r) == want and len(calls) == 1
    read = Route._from_columns("s", s.point_array, s.leg_lengths_m)  # as the reader builds it
    assert route_length(read) == left_sum(s.leg_lengths_m) and len(calls) == 2


def test_route_needs_two_points():
    with pytest.raises(DomainError):
        Route("short", (Coordinate(50.0, 6.0),))


def test_route_length_is_sum_of_legs():
    r = random_route(random.Random(3), 12)
    legs = [distance(r.points[i], r.points[i + 1]) for i in range(11)]
    assert route_length(r) == sum(legs, 0.0)


def test_arc_length_full_span_equals_route_length():
    r = random_route(random.Random(4), 9)
    assert arc_length_between(r, 0, 8) == route_length(r)
    assert arc_length_between(r, 3, 3) == 0.0


def test_arc_length_is_additive():
    r = random_route(random.Random(5), 15)
    total = arc_length_between(r, 0, 14)
    split = arc_length_between(r, 0, 6) + arc_length_between(r, 6, 14)
    assert math.isclose(split, total, rel_tol=1e-12)


def test_arc_length_index_validation():
    r = random_route(random.Random(6), 5)
    with pytest.raises(DomainError):
        arc_length_between(r, -1, 2)
    with pytest.raises(DomainError):
        arc_length_between(r, 3, 1)
    with pytest.raises(DomainError):
        arc_length_between(r, 0, 5)
