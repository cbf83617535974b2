"""Pool generation determinism and GeoJSON round-trips."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dlcss import (
    Coordinate,
    DomainError,
    GenerationError,
    ParseError,
    Route,
    RoutePool,
    assess_shared_ride,
    GridGraph,
    generate_pool,
    read_geojson,
    route_length,
    shortest_route,
    write_geojson,
)
from dlcss import geo


def test_pool_rejects_duplicate_ids():
    p = Coordinate(50.75, 6.0)
    q = Coordinate(50.75, 6.01)
    with pytest.raises(DomainError):
        RoutePool(routes=[Route("x", (p, q)), Route("x", (q, p))])


def test_generate_single_route(intact_grid):
    pool = generate_pool(intact_grid, n=1, seed=0)
    assert len(pool) == 1
    assert pool.routes[0].id == "r000"


def test_generate_is_deterministic(intact_grid):
    p1 = generate_pool(intact_grid, n=12, seed=5)
    p2 = generate_pool(intact_grid, n=12, seed=5)
    assert [r.id for r in p1.routes] == [r.id for r in p2.routes]
    assert [r.points for r in p1.routes] == [r.points for r in p2.routes]
    p3 = generate_pool(intact_grid, n=12, seed=6)
    assert [r.points for r in p3.routes] != [r.points for r in p1.routes]


def test_generate_respects_min_length(intact_grid):
    pool = generate_pool(intact_grid, n=25, seed=1, min_length_m=1500.0)
    assert all(route_length(r) >= 1500.0 for r in pool.routes)


def test_generate_unattainable_min_length(intact_grid):
    # the 12x12 grid cannot produce 100 km routes
    with pytest.raises(GenerationError):
        generate_pool(intact_grid, n=1, seed=0, min_length_m=100_000.0)


@pytest.mark.parametrize("n", [True, 2.0, "3", None, np.float64(3.0), np.True_, np.int64(0)])
def test_generate_rejects_a_pool_size_that_is_no_integer_count(intact_grid, n):
    with pytest.raises(DomainError, match="pool size n must be an integer"):
        generate_pool(intact_grid, n=n, seed=0)


def test_generate_takes_a_numpy_integer_pool_size(intact_grid):
    pool = generate_pool(intact_grid, n=np.int64(3), seed=4)
    assert type(pool.metadata["n"]) is int
    assert pool.routes == generate_pool(intact_grid, n=3, seed=4).routes


def test_generate_validation(intact_grid):
    with pytest.raises(DomainError):
        generate_pool(intact_grid, n=0, seed=0)
    for bad in (-1.0, math.nan):
        with pytest.raises(DomainError, match="min_length_m must be"):
            generate_pool(intact_grid, n=1, seed=0, min_length_m=bad)


def test_generate_records_metadata(intact_grid):
    pool = generate_pool(intact_grid, n=3, seed=9, min_length_m=500.0)
    md = pool.metadata
    assert (md["seed"], md["n"], md["min_length_m"]) == (9, 3, 500.0)
    assert md["grid"]["rows"] == 12
    assert md["grid"]["spacing_m"] == 250.0


def test_large_pool_has_unique_ids(default_grid):
    pool = generate_pool(default_grid, n=180, seed=0)
    assert len(pool) == 180
    assert len({r.id for r in pool.routes}) == 180


def test_empty_pool_round_trip(tmp_path):
    path = tmp_path / "empty.geojson"
    write_geojson(RoutePool(routes=[]), path)
    doc = json.loads(path.read_text())
    assert doc["type"] == "FeatureCollection"
    assert doc["features"] == []
    assert len(read_geojson(path)) == 0


def test_round_trip_is_idempotent_after_first_cycle(tmp_path, intact_grid):
    pool = generate_pool(intact_grid, n=10, seed=2)
    p1 = tmp_path / "a.geojson"
    p2 = tmp_path / "b.geojson"
    write_geojson(pool, p1)
    once = read_geojson(p1)
    write_geojson(once, p2)
    twice = read_geojson(p2)
    assert twice == once
    assert p1.read_text() == p2.read_text()
    # first cycle only rounds coordinates, nothing else
    for orig, cycled in zip(pool.routes, once.routes):
        assert cycled.id == orig.id
        for p, q in zip(orig.points, cycled.points):
            assert (q.lat, q.lon) == (round(p.lat, 7), round(p.lon, 7))
    assert once.metadata == pool.metadata


def test_round_trip_keeps_edge_routes_routable(tmp_path, default_grid):
    # on this grid, rounding to 7 decimals moves both the north and the east
    # edge outward, past the last node
    g = default_grid
    north_east = g.num_nodes - 1
    north = g.num_nodes - g.cols // 2
    east = (g.rows // 2) * g.cols + g.cols - 1
    inner = (g.rows // 3) * g.cols + g.cols // 3
    ends = [(inner, north_east), (north, inner), (inner, east), (east, north)]
    pool = RoutePool(
        routes=[
            Route(f"e{k}", shortest_route(g, g.node(u), g.node(v)).points)
            for k, (u, v) in enumerate(ends)
        ]
    )
    path = tmp_path / "edges.geojson"
    write_geojson(pool, path)
    cycled = read_geojson(path)
    for a, a2 in zip(pool.routes, cycled.routes):
        for r, r2 in zip(pool.routes, cycled.routes):
            before = assess_shared_ride(g, a, r)
            after = assess_shared_ride(g, a2, r2)
            assert math.isfinite(after.detour_fraction), after.diagnostic
            assert after.compatible == before.compatible


def test_geojson_coordinate_order_is_lon_lat(tmp_path):
    r = Route("r0", (Coordinate(50.75, 6.0), Coordinate(50.76, 6.01)))
    path = tmp_path / "order.geojson"
    write_geojson(RoutePool(routes=[r]), path)
    coords = json.loads(path.read_text())["features"][0]["geometry"]["coordinates"]
    assert coords[0] == [6.0, 50.75]


def write_doc(tmp_path, features):
    path = tmp_path / "doc.geojson"
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
    return path


def line_feature(rid, coords):
    return {
        "type": "Feature",
        "properties": {"id": rid},
        "geometry": {"type": "LineString", "coordinates": coords},
    }


def test_read_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.geojson"
    path.write_text("{nope")
    with pytest.raises(ParseError):
        read_geojson(path)


def test_read_rejects_non_feature_collection(tmp_path):
    path = tmp_path / "bad.geojson"
    path.write_text(json.dumps({"type": "Feature"}))
    with pytest.raises(ParseError):
        read_geojson(path)


def test_read_names_offending_feature(tmp_path):
    good = line_feature("r0", [[6.0, 50.75], [6.01, 50.75]])
    point = {
        "type": "Feature",
        "properties": {"id": "r1"},
        "geometry": {"type": "Point", "coordinates": [6.0, 50.75]},
    }
    with pytest.raises(ParseError, match="feature 1"):
        read_geojson(write_doc(tmp_path, [good, point]))

    short = line_feature("r1", [[6.0, 50.75]])
    with pytest.raises(ParseError, match="feature 1"):
        read_geojson(write_doc(tmp_path, [good, short]))

    anonymous = line_feature("r1", [[6.0, 50.75], [6.01, 50.75]])
    del anonymous["properties"]["id"]
    with pytest.raises(ParseError, match="feature 1"):
        read_geojson(write_doc(tmp_path, [good, anonymous]))

    off_globe = line_feature("r1", [[6.0, 95.0], [6.01, 50.75]])
    with pytest.raises(ParseError, match="feature 1"):
        read_geojson(write_doc(tmp_path, [good, off_globe]))


BAD_FEATURES = {  # a malformed feature, and the message that names it
    "point": ({"type": "Feature", "properties": {"id": "x"},
               "geometry": {"type": "Point", "coordinates": [6.0, 50.75]}},
              "geometry must be a LineString"),
    "short": (line_feature("x", [[6.0, 50.75]]), "LineString needs at least 2 coordinates"),
    "anonymous": (line_feature("", [[6.0, 50.75], [6.01, 50.75]]),
                  "missing route id in properties.id"),
    "lon-only": (line_feature("x", [[6.0, 50.75], [6.01]]),
                 "every position needs at least [lon, lat]"),
    "bool": (line_feature("x", [[6.0, 50.75], [True, 50.75]]),
             "longitude and latitude must be numbers"),
    "off-globe": (line_feature("x", [[6.0, 50.75], [6.01, 95]]),
                  "latitude 95.0 outside [-90, 90]"),
    "lon-before-lat": (line_feature("x", [[6.0, 50.75], [181.0, 50.75], [6.0, -91.0]]),
                       "longitude 181.0 outside [-180, 180]"),
    "huge": (line_feature("x", [[6.0, 50.75], [10**400, 50.75]]),
             "int too large to convert to float"),
}


@pytest.mark.parametrize("first", list(BAD_FEATURES))
def test_read_names_the_first_bad_feature(tmp_path, first):
    """The whole-pool checks name the first bad feature with its own message,
    whichever kind of fault a later feature has."""
    good = line_feature("g", [[6.0, 50.75], [6.01, 50.75]])
    for later in BAD_FEATURES:
        features = [good, BAD_FEATURES[first][0], good, BAD_FEATURES[later][0]]
        with pytest.raises(ParseError) as err:
            read_geojson(write_doc(tmp_path, features))
        assert str(err.value) == f"feature 1: {BAD_FEATURES[first][1]}", later


def test_read_drops_altitude(tmp_path):
    flat = line_feature("r0", [[6.0, 50.75], [6.01, 50.75]])
    high = line_feature("r0", [[6.0, 50.75, 120.5], [6.01, 50.75, 98.0]])
    assert read_geojson(write_doc(tmp_path, [high])).routes == read_geojson(
        write_doc(tmp_path, [flat])
    ).routes


def test_read_rejects_position_without_lat(tmp_path):
    good = line_feature("r0", [[6.0, 50.75], [6.01, 50.75]])
    lon_only = line_feature("r1", [[6.0, 50.75], [6.01]])
    with pytest.raises(ParseError, match="feature 1"):
        read_geojson(write_doc(tmp_path, [good, lon_only]))


def test_read_rejects_duplicate_ids(tmp_path):
    dup = [
        line_feature("r0", [[6.0, 50.75], [6.01, 50.75]]),
        line_feature("r0", [[6.0, 50.76], [6.01, 50.76]]),
    ]
    with pytest.raises(ParseError):
        read_geojson(write_doc(tmp_path, dup))


@pytest.mark.parametrize("metadata", [[], 0, False, "", [1], "x", 5])
def test_read_rejects_top_level_properties_that_are_no_object(tmp_path, metadata):
    path = tmp_path / "doc.geojson"
    doc = {"type": "FeatureCollection", "properties": metadata,
           "features": [line_feature("r0", [[6.0, 50.75], [6.01, 50.75]])]}
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="top-level properties must be an object"):
        read_geojson(path)


def test_read_takes_missing_or_null_top_level_properties_as_empty(tmp_path):
    path = tmp_path / "doc.geojson"
    for doc in ({"type": "FeatureCollection", "features": []},
                {"type": "FeatureCollection", "properties": None, "features": []}):
        path.write_text(json.dumps(doc))
        assert read_geojson(path).metadata == {}


def cycle(pool, path):
    write_geojson(pool, path)
    return read_geojson(path)


def lattice(limit):
    """Degrees a pool file holds as written: 7 decimals, integers, the limits, -0.0."""
    return st.one_of(
        st.integers(-limit * 10**7, limit * 10**7).map(lambda k: k / 1e7),
        st.integers(-limit, limit),
        st.sampled_from([float(limit), -float(limit), -0.0]),
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    lines=st.lists(
        st.lists(st.tuples(lattice(90), lattice(180)), min_size=1, max_size=8), min_size=1,
        max_size=5,
    ),
)
def test_read_routes_equal_routes_built_from_coordinates(tmp_path_factory, lines):
    """A route read from a file has the point array, legs and length, to the
    bit, of the route built from ``Coordinate``s of the same floats, and equal
    points, ``==`` and hash. A pool of them survives a write and a read."""
    tmp = tmp_path_factory.mktemp("columns")
    lines = [line + line[-1:] for line in lines]  # a repeated point: a zero-length leg
    features = [line_feature(f"r{k}", [[lon, lat] for lat, lon in line])
                for k, line in enumerate(lines)]
    read = read_geojson(write_doc(tmp, features)).routes
    built = [Route(f"r{k}", [Coordinate(float(lat), float(lon)) for lat, lon in line])
             for k, line in enumerate(lines)]
    assert len(read) == len(built)
    for r, b in zip(read, built):
        assert r.point_array.dtype == np.float64
        assert r.point_array.tobytes() == b.point_array.tobytes()
        assert np.array(r.leg_lengths_m).tobytes() == np.array(b.leg_lengths_m).tobytes()
        assert all(type(x) is float for x in r.leg_lengths_m)
        assert r.length_m.hex() == b.length_m.hex() == geo.left_sum(b.leg_lengths_m).hex()
        assert r.points == b.points and r == b and hash(r) == hash(b)
    assert cycle(RoutePool(routes=built), tmp / "cycled.geojson").routes == built


integral_points = st.lists(
    st.tuples(st.integers(-90, 90), st.integers(-180, 180)), min_size=2, max_size=6
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    routes=st.lists(integral_points, min_size=1, max_size=4),
    shape=st.data(),
)
def test_integer_and_altitude_positions_read_as_their_float_forms(tmp_path_factory, routes, shape):
    """Legal variants of a position: an integer coordinate reads as its float,
    and an altitude (RFC 7946 section 3.1.1) is dropped."""
    tmp = tmp_path_factory.mktemp("variants")
    flat, varied = [], []
    for k, pts in enumerate(routes):
        flat.append(line_feature(f"r{k}", [[float(lon), float(lat)] for lat, lon in pts]))
        coords = []
        for lat, lon in pts:
            pos = [shape.draw(st.sampled_from([lon, float(lon)])),
                   shape.draw(st.sampled_from([lat, float(lat)]))]
            pos += shape.draw(st.lists(st.sampled_from([0, 120.5, -3.0]), max_size=2))
            coords.append(pos)
        varied.append(line_feature(f"r{k}", coords))
    want = read_geojson(write_doc(tmp, flat)).routes
    got = read_geojson(write_doc(tmp, varied)).routes
    assert got == want
    for r in got:
        assert all(type(p) is Coordinate and type(p.lat) is float and type(p.lon) is float
                   for p in r.points)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    rows=st.integers(2, 6),
    cols=st.integers(2, 6),
    spacing_m=st.floats(50.0, 500.0),
    lat=st.floats(-60.0, 60.0),
    lon=st.floats(-170.0, 170.0),
    n=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_round_trip_is_stable_and_keeps_endpoints_snappable(
    tmp_path_factory, rows, cols, spacing_m, lat, lon, n, seed
):
    g = GridGraph.build(rows=rows, cols=cols, origin=Coordinate(lat, lon), spacing_m=spacing_m,
                        removal_fraction=0.1, seed=seed)
    pool = generate_pool(g, n=n, seed=seed)
    tmp = tmp_path_factory.mktemp("cycle")
    once = cycle(pool, tmp / "a.geojson")
    twice = cycle(once, tmp / "b.geojson")
    assert twice.routes == once.routes and twice.metadata == once.metadata == pool.metadata
    assert (tmp / "a.geojson").read_bytes() == (tmp / "b.geojson").read_bytes()
    for r, r1 in zip(pool.routes, once.routes):
        for end in (0, -1):
            assert g.snap(r1.points[end]) == g.snap(r.points[end])
