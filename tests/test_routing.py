"""Grid graph, shortest paths, and the shared-ride detour oracle."""

import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dlcss import (
    Coordinate,
    DETOUR_LIMIT_FRACTION,
    DomainError,
    GridGraph,
    NoRouteError,
    ParseError,
    Route,
    assess_shared_ride,
    distance,
    generate_pool,
    route_length,
    shortest_route,
)

from dlcss.geo import _point_table, left_sum
from dlcss.routing import detour_fractions

from reference import bellman_ford_path


def test_detour_limit_constant():
    assert DETOUR_LIMIT_FRACTION == 0.5


def test_build_validation():
    with pytest.raises(DomainError):
        GridGraph.build(rows=1, cols=1)
    with pytest.raises(DomainError):
        GridGraph.build(spacing_m=0.0)
    with pytest.raises(DomainError):
        GridGraph.build(removal_fraction=1.0)
    with pytest.raises(DomainError):
        GridGraph.build(removal_fraction=-0.1)


def test_nan_spacing_is_rejected_as_spacing():
    with pytest.raises(DomainError, match="spacing_m must be positive"):
        GridGraph.build(rows=3, cols=3, spacing_m=float("nan"))


def test_infinite_spacing_is_rejected_as_spacing():
    with pytest.raises(DomainError, match="spacing_m must be positive and finite, got inf"):
        GridGraph(2, 2, Coordinate(50.75, 6.08), math.inf, [(0, 1), (0, 2), (1, 3)])
    with pytest.raises(DomainError, match="spacing_m must be positive and finite, got inf"):
        GridGraph.build(rows=3, cols=3, spacing_m=math.inf)


def test_build_is_reproducible():
    g1 = GridGraph.build(rows=8, cols=8, removal_fraction=0.15, seed=42)
    g2 = GridGraph.build(rows=8, cols=8, removal_fraction=0.15, seed=42)
    assert g1 == g2
    g3 = GridGraph.build(rows=8, cols=8, removal_fraction=0.15, seed=43)
    assert g1 != g3


def test_build_removes_edges_but_stays_connected(default_grid):
    full_edges = 2 * 20 * 19  # horizontal + vertical edges of a 20x20 lattice
    assert len(default_grid.edges) == full_edges - round(0.10 * full_edges)
    dist = default_grid.source_distances(0)
    assert np.isfinite(dist).all()


def test_node_layout(intact_grid):
    g = intact_grid
    assert g.num_nodes == 144
    sw = g.node(0)
    assert (sw.lat, sw.lon) == (50.75, 6.08)
    east_neighbour = g.node(1)
    assert math.isclose(distance(sw, east_neighbour), 250.0, rel_tol=1e-6)
    north_neighbour = g.node(12)
    assert math.isclose(distance(sw, north_neighbour), 250.0, rel_tol=1e-6)


def test_snap_nodes_and_interior(intact_grid):
    g = intact_grid
    for idx in (0, 7, 143):
        assert g.snap(g.node(idx)) == idx
    # a point slightly north-east of node 0 still snaps to it
    p = Coordinate(50.75 + g.dlat_deg * 0.4, 6.08 + g.dlon_deg * 0.3)
    assert g.snap(p) == 0
    with pytest.raises(DomainError):
        g.snap(Coordinate(50.0, 6.08))
    with pytest.raises(DomainError):
        g.snap(Coordinate(50.75, 7.0))


def test_source_distances_metric_lower_bound(intact_grid):
    g = intact_grid
    dist = g.source_distances(0)
    for idx in range(0, g.num_nodes, 13):
        assert dist[idx] >= distance(g.node(0), g.node(idx)) - 1e-9


def test_manhattan_closed_form(intact_grid):
    """On the intact lattice the path cost is the Manhattan leg count times
    the spacing, up to the per-row longitude-step variation."""
    g = intact_grid
    dist = g.source_distances(2 * 12 + 3)
    for r, c in [(2, 10), (9, 3), (11, 11), (0, 0)]:
        hops = abs(r - 2) + abs(c - 3)
        assert math.isclose(dist[r * 12 + c], hops * 250.0, rel_tol=1e-3)


def test_path_nodes_walks_adjacent_nodes(default_grid):
    g = default_grid
    adjacency = {u: set() for u in range(g.num_nodes)}
    for u, v in g.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    path = g.path_nodes(0, g.num_nodes - 1)
    assert path[0] == 0 and path[-1] == g.num_nodes - 1
    assert all(v in adjacency[u] for u, v in zip(path, path[1:]))


def test_path_cost_equals_distance_field(default_grid):
    """The extracted path's sequential leg sum reproduces the Dijkstra
    distance exactly; the oracle's zero-detour identity relies on it."""
    g = default_grid
    rng = random.Random(0)
    for _ in range(20):
        s, d = rng.sample(range(g.num_nodes), 2)
        path = g.path_nodes(s, d)
        legs = [distance(g.node(u), g.node(v)) for u, v in zip(path, path[1:])]
        assert left_sum(legs) == g.source_distances(s)[d]


def test_dijkstra_matches_bellman_ford(intact_grid, default_grid):
    rng = random.Random(1)
    for g, trials in ((intact_grid, 8), (default_grid, 4)):
        for _ in range(trials):
            s, d = rng.sample(range(g.num_nodes), 2)
            assert g.path_nodes(s, d) == bellman_ford_path(g, s, d)


def test_shortest_route_endpoints_and_same_node(intact_grid):
    g = intact_grid
    r = shortest_route(g, g.node(0), g.node(143))
    assert r.points[0] == g.node(0)
    assert r.points[-1] == g.node(143)
    with pytest.raises(NoRouteError):
        shortest_route(g, g.node(5), g.node(5))


def test_json_round_trip(tmp_path, default_grid):
    path = tmp_path / "grid.json"
    default_grid.write_json(path)
    assert GridGraph.read_json(path) == default_grid


def test_json_rejects_tampered_nodes(tmp_path, intact_grid):
    doc = intact_grid.to_json_dict()
    doc["nodes"][5][0] += 0.01
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        GridGraph.read_json(path)


def test_json_rejects_garbage(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        GridGraph.read_json(path)
    path.write_text('{"rows": 3}')
    with pytest.raises(ParseError):
        GridGraph.read_json(path)


def test_self_ride_has_exactly_zero_detour(intact_grid):
    g = intact_grid
    a = shortest_route(g, g.node(0), g.node(143))
    verdict = assess_shared_ride(g, a, a)
    assert verdict.detour_m == 0.0
    assert verdict.detour_fraction == 0.0
    assert verdict.compatible


def test_sub_corridor_ride_compatible(intact_grid):
    g = intact_grid
    a = shortest_route(g, g.node(6 * 12 + 0), g.node(6 * 12 + 11))
    r = shortest_route(g, g.node(6 * 12 + 3), g.node(6 * 12 + 8))
    verdict = assess_shared_ride(g, a, r)
    assert verdict.detour_m <= 1e-6
    assert verdict.compatible


def test_opposite_direction_ride_incompatible(intact_grid):
    # same corridor, but the request travels against the vehicle
    g = intact_grid
    a = shortest_route(g, g.node(6 * 12 + 0), g.node(6 * 12 + 11))
    r = shortest_route(g, g.node(6 * 12 + 8), g.node(6 * 12 + 3))
    verdict = assess_shared_ride(g, a, r)
    assert verdict.detour_fraction > DETOUR_LIMIT_FRACTION
    assert not verdict.compatible


def test_assessment_values_match_hand_computation(intact_grid):
    g = intact_grid
    a = shortest_route(g, g.node(6 * 12 + 0), g.node(6 * 12 + 11))
    r = shortest_route(g, g.node(6 * 12 + 8), g.node(6 * 12 + 3))
    l_a = route_length(a)
    shared = (
        g.source_distances(6 * 12 + 0)[6 * 12 + 8]
        + g.source_distances(6 * 12 + 8)[6 * 12 + 3]
        + g.source_distances(6 * 12 + 3)[6 * 12 + 11]
    )
    verdict = assess_shared_ride(g, a, r)
    assert verdict.detour_m == max(0.0, shared - l_a)
    assert verdict.detour_fraction == verdict.detour_m / l_a


def test_unroutable_endpoint_is_diagnosed(intact_grid):
    g = intact_grid
    a = shortest_route(g, g.node(0), g.node(143))
    outside = Route("far", (Coordinate(40.0, 6.08), Coordinate(40.0, 6.09)))
    verdict = assess_shared_ride(g, a, outside)
    assert not verdict.compatible
    assert verdict.diagnostic is not None
    assert math.isinf(verdict.detour_m)


def test_zero_length_vehicle_is_diagnosed(intact_grid):
    g = intact_grid
    p = Coordinate(50.75, 6.08)
    stub = Route("stub", (p, p))  # no ride to detour from
    r = shortest_route(g, g.node(0), g.node(5))
    verdict = assess_shared_ride(g, stub, r)
    assert not verdict.compatible
    assert verdict.diagnostic is not None


def test_detour_fractions_equal_single_pair_oracle(intact_grid):
    """The array oracle and every single-pair field equal a scalar leg sum on
    routable routes. An off-grid route makes the array oracle raise, naming it,
    and the single-pair oracle diagnose it."""
    g = intact_grid
    p = Coordinate(50.76, 6.1)
    routes = list(generate_pool(g, n=10, seed=4).routes) + [
        Route("stub", (p, p)),
        Route("out-and-back", (g.node(0), g.node(143), g.node(1))),  # shared < l_a
    ]
    random.Random(0).shuffle(routes)
    off_grid = Route("off-grid", (Coordinate(50.76, 6.1), Coordinate(40.0, 6.09)))
    message = "route 'off-grid' has no grid label: latitude 40.0 outside grid bounding box"
    with pytest.raises(DomainError, match=message):
        detour_fractions(g, routes[:5] + [off_grid] + routes[5:])
    ends = {r.id: (g.snap(r.points[0]), g.snap(r.points[-1])) for r in routes}
    fractions = detour_fractions(g, routes)
    assert fractions.shape == (len(routes), len(routes))
    for i, a in enumerate(routes):
        for j, r in enumerate(routes):
            (a0, a1), (r0, r1) = ends[a.id], ends[r.id]
            shared = (
                float(g.source_distances(a0)[r0])
                + float(g.source_distances(r0)[r1])
                + float(g.source_distances(r1)[a1])
            )
            l_a = route_length(a)
            detour = max(0.0, shared - l_a)
            fraction = detour / l_a if l_a > 0.0 else math.inf
            verdict = assess_shared_ride(g, a, r)
            assert fractions[i, j] == fraction, (a.id, r.id)
            assert (verdict.detour_m, verdict.detour_fraction) == (detour, fraction), (a.id, r.id)
            assert verdict.compatible == (fraction <= DETOUR_LIMIT_FRACTION)
            assert (verdict.diagnostic is None) == math.isfinite(fraction)
        for verdict in (assess_shared_ride(g, a, off_grid), assess_shared_ride(g, off_grid, a)):
            assert (verdict.detour_m, verdict.detour_fraction) == (math.inf, math.inf)
            assert not verdict.compatible and verdict.diagnostic == message
    stub = [r.id for r in routes].index("stub")
    assert np.isinf(fractions[stub]).all()
    assert np.isfinite(np.delete(fractions[:, stub], stub)).any()


@st.composite
def grids_and_pools(draw):
    """A small seeded grid, a pool of its routes with zero-length routes among
    them (one point twice: a node or a point inside the grid), shuffled, and a
    route whose end lies off the grid."""
    g = GridGraph.build(
        draw(st.integers(2, 8)), draw(st.integers(2, 8)),
        Coordinate(draw(st.floats(-60.0, 60.0)), draw(st.floats(-10.0, 10.0))),
        draw(st.floats(50.0, 1000.0)), draw(st.floats(0.0, 0.4)), draw(st.integers(0, 9)),
    )
    routes = list(generate_pool(g, draw(st.integers(1, 6)), draw(st.integers(0, 99))).routes)
    (lat0, lon0), (lat1, lon1) = ((c.lat, c.lon) for c in (g.node(0), g.node(g.num_nodes - 1)))
    for k in range(draw(st.integers(0, 2))):
        u, v = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
        p = draw(st.sampled_from([
            g.node(draw(st.integers(0, g.num_nodes - 1))),
            Coordinate(lat0 + u * (lat1 - lat0), lon0 + v * (lon1 - lon0)),
        ]))
        routes.append(Route(f"zero{k}", (p, p)))
    routes = draw(st.permutations(routes))
    off_grid = Route("off-grid", (routes[0].points[0], Coordinate(lat1 + 0.01, lon0)))
    return g, routes, off_grid, draw(st.integers(0, len(routes)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(grids_and_pools())
def test_detour_fractions_equal_single_pair_oracle_on_random_grids(case):
    g, routes, off_grid, at = case
    single = GridGraph(g.rows, g.cols, g.origin, g.spacing_m, g.edges, g.removal_fraction, g.seed)
    fractions = detour_fractions(g, routes)
    want = [[assess_shared_ride(single, a, r).detour_fraction for r in routes] for a in routes]
    assert fractions.tobytes() == np.array(want).tobytes()
    with pytest.raises(DomainError, match="route 'off-grid' has no grid label"):
        detour_fractions(g, routes[:at] + [off_grid] + routes[at:])


def test_detour_fractions_of_empty_and_one_route_pools(intact_grid):
    g = intact_grid
    assert detour_fractions(g, []).shape == (0, 0)
    a = shortest_route(g, g.node(0), g.node(30))
    fractions = detour_fractions(g, [a])
    assert fractions.shape == (1, 1)
    assert fractions[0, 0] == assess_shared_ride(g, a, a).detour_fraction


def reference_snap(g, c):
    """The nearest clipped floor/ceil cell corner by (distance, index), or None
    outside the bbox, with one scalar distance per corner from fresh Coordinates."""
    eps = 0.5 * 10.0**-7
    lats, lons = g.node_lats, g.node_lons
    if not (lats[0] - eps <= c.lat <= lats[-1] + eps and lons[0] - eps <= c.lon <= lons[-1] + eps):
        return None
    fr = (c.lat - g.origin.lat) / g.dlat_deg
    fc = (c.lon - g.origin.lon) / g.dlon_deg
    rows = {min(max(f(fr), 0), g.rows - 1) for f in (math.floor, math.ceil)}
    cols = {min(max(f(fc), 0), g.cols - 1) for f in (math.floor, math.ceil)}
    corners = [r * g.cols + k for r in rows for k in cols]
    return min((distance(c, Coordinate(float(lats[i]), float(lons[i]))), i) for i in corners)[1]


def _beyond(x, lo):
    """The float just outside a range, next to its endpoint x (lo or the upper one)."""
    return float(np.nextafter(x, -np.inf if x == lo else np.inf))


@pytest.mark.parametrize("spacing_m", [250.0, 0.2])
def test_snap_equals_scalar_reference(spacing_m):
    g = GridGraph.build(8, 9, Coordinate(50.75, 6.08), spacing_m, 0.0, 1)
    eps = 0.5 * 10.0**-7
    lat_lo, lat_hi = float(g.node_lats[0]) - eps, float(g.node_lats[-1]) + eps
    lon_lo, lon_hi = float(g.node_lons[0]) - eps, float(g.node_lons[-1]) + eps
    probes = []
    for i in range(g.num_nodes):
        la, lo = float(g.node_lats[i]), float(g.node_lons[i])
        probes.append((la, lo))
        for s in (-1e-12, 1e-12):
            probes += [(la + s * g.dlat_deg, lo), (la, lo + s * g.dlon_deg)]
        probes.append((la + 0.5 * g.dlat_deg, lo + 0.5 * g.dlon_deg))  # cell midpoint
    for la in (lat_lo, lat_hi):
        for lo in (lon_lo, lon_hi):  # each bbox corner, just inside and just outside
            probes += [(la, lo), (_beyond(la, lat_lo), lo), (la, _beyond(lo, lon_lo))]
    ties = outside = 0
    for la, lo in probes:
        c = Coordinate(la, lo)
        expected = reference_snap(g, c)
        if expected is None:
            outside += 1
            with pytest.raises(DomainError, match="outside grid bounding box"):
                g.snap(c)
            continue
        assert g.snap(c) == expected, (la, lo)
        d = sorted(distance(c, g.node(i)) for i in range(g.num_nodes))
        ties += d[0] == d[1]
    assert outside == 8 + g.rows + g.cols - 1  # 2 per bbox corner, midpoints past the last row or column
    assert ties > 0 or spacing_m > 1.0  # the 0.2 m grid has nearest-node ties


def test_edge_weights_equal_scalar_distance(default_grid):
    g = default_grid
    weights = [(u, v, w) for u in range(g.num_nodes) for v, w in g._adj[u]]
    assert len(weights) == 2 * len(g.edges)
    assert all(w == distance(g.node(u), g.node(v)) for u, v, w in weights)


def test_grid_route_point_array_equals_fresh_route(default_grid):
    g = default_grid
    routes = [shortest_route(g, g.node(0), g.node(g.num_nodes - 1)),
              shortest_route(g, Coordinate(50.7512, 6.0931), Coordinate(50.7611, 6.0877)),
              *generate_pool(g, n=5, seed=2).routes]
    for route in routes:
        fresh = Route(route.id, route.points)
        assert route.point_array.flags.c_contiguous
        assert route.point_array.tobytes() == fresh.point_array.tobytes()
        assert route.leg_lengths_m == fresh.leg_lengths_m


def test_zero_length_edges_are_rejected(tmp_path):
    # at 0.1 mm the haversine reads some neighbouring nodes as 0.0 m apart
    with pytest.raises(DomainError, match="spacing_m 0.0001 is too small"):
        GridGraph.build(6, 7, Coordinate(50.75, 6.08), 1e-4, 0.0, 1)
    doc = GridGraph.build(6, 7, Coordinate(50.75, 6.08), 1.0, 0.0, 1).to_json_dict()
    doc["spacing_m"] = 0.01
    del doc["nodes"]
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DomainError, match="too small"):
        GridGraph.read_json(path)


@pytest.mark.parametrize("fraction", [7.5, -0.1, 1.0, float("nan")])
def test_constructor_checks_removal_fraction(intact_grid, fraction):
    g = intact_grid
    with pytest.raises(DomainError, match="removal_fraction must be in"):
        GridGraph(g.rows, g.cols, g.origin, g.spacing_m, g.edges, fraction, g.seed)


@pytest.mark.parametrize("bad", [-1, 16, 2.0, True])
def test_node_indices_are_checked(bad):
    """An index outside [0, n), or one that is not an int, raises DomainError
    naming it, instead of wrapping around, failing deep inside or memoizing."""
    g = GridGraph.build(4, 4, Coordinate(50.75, 6.08), 250.0, 0.0, 0)
    message = f"node index {bad!r} invalid for 16 nodes"
    calls = [
        lambda: g.source_distances(bad),
        lambda: g.source_rows([0, bad]),
        lambda: g.path_nodes(0, bad),
        lambda: g.path_nodes(bad, 0),
    ]
    for call in calls:
        with pytest.raises(DomainError, match=message):
            call()
    assert not g._source_dists
    assert g.path_nodes(0, 15)[-1] == 15


@st.composite
def graphs_and_sources(draw):
    """A small seeded grid anywhere from 0.3 m to 3 km spacing and up to 89 N,
    loaded from a graph document with extra long-range and duplicate edges,
    and a source list with repeats, part of it warmed one source at a time."""
    rows, cols = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    origin = Coordinate(draw(st.floats(-60.0, 89.0)), draw(st.floats(-10.0, 10.0)))
    g = GridGraph.build(
        rows, cols, origin, draw(st.floats(0.3, 3000.0)),
        draw(st.floats(0.0, 0.5)), draw(st.integers(0, 9)),
    )
    n = g.num_nodes
    node = st.integers(0, n - 1)
    extra = draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=6))
    extra += draw(st.lists(st.sampled_from(g.edges), max_size=3))
    doc = g.to_json_dict()
    doc["edges"] += [list(e) for e in extra]
    g = GridGraph.from_json_dict(doc)
    sources = draw(st.lists(node, min_size=1, max_size=20))
    sources += draw(st.lists(st.sampled_from(sources), max_size=3))
    warm = draw(st.lists(st.sampled_from(sources), max_size=3))
    return g, sources, warm


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(graphs_and_sources())
def test_source_rows_equal_heap_rows_bit_for_bit(case):
    g, sources, warm = case
    heap = GridGraph(g.rows, g.cols, g.origin, g.spacing_m, g.edges, g.removal_fraction, g.seed)
    for s in warm:
        g.source_distances(s)
    rows = g.source_rows(sources)
    assert len(rows) == len(sources)
    for s, row in zip(sources, rows):
        assert row.tobytes() == heap.source_distances(s).tobytes(), s
        assert g.source_distances(s) is row  # memoized


@pytest.mark.parametrize("bad", [2.5, None, True, "3", np.float64(3.0), np.True_])
def test_seed_must_be_an_integer(bad):
    """The seed takes the integer rule of counts: a seed of 2.5 used to build a
    graph whose own document ``from_json_dict`` rejects."""
    message = f"seed must be an integer, got {bad!r}"
    with pytest.raises(DomainError, match=re.escape(message)):
        GridGraph.build(rows=4, cols=4, seed=bad)
    with pytest.raises(DomainError, match=re.escape(message)):
        GridGraph(2, 2, Coordinate(50.75, 6.08), 250.0, [(0, 1), (0, 2), (1, 3)], 0.0, bad)


def test_numpy_integer_and_negative_seeds_are_seeds():
    g = GridGraph.build(rows=6, cols=6, removal_fraction=0.2, seed=np.int64(3))
    assert type(g.seed) is int
    assert g == GridGraph.build(rows=6, cols=6, removal_fraction=0.2, seed=3)
    assert GridGraph.from_json_dict(json.loads(json.dumps(g.to_json_dict()))) == g
    assert GridGraph.build(rows=6, cols=6, removal_fraction=0.2, seed=-1).seed == -1


@st.composite
def grids_and_points(draw):
    """A grid anywhere from 0.3 m to 3 km spacing and up to 89 N, and points in
    its bbox: nodes, lattice midpoints, random interior points and points on
    the bbox edges within half a unit of the 7th decimal."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(2, 12))
    origin = Coordinate(draw(st.floats(-60.0, 89.0)), draw(st.floats(-10.0, 10.0)))
    g = GridGraph.build(rows, cols, origin, draw(st.floats(0.3, 3000.0)), 0.0, 0)
    eps = 0.5 * 10.0**-7
    lats, lons = g.node_lats.tolist(), g.node_lons.tolist()
    (lat0, lon0), (lat1, lon1) = (lats[0], lons[0]), (lats[-1], lons[-1])
    unit = st.floats(0.0, 1.0)
    node = st.integers(0, g.num_nodes - 1).map(lambda i: (lats[i], lons[i]))
    midpoint = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)).map(
        lambda rc: (origin.lat + (rc[0] + 0.5) * g.dlat_deg, origin.lon + (rc[1] + 0.5) * g.dlon_deg)
    )
    interior = st.tuples(unit, unit).map(
        lambda uv: (lat0 + uv[0] * (lat1 - lat0), lon0 + uv[1] * (lon1 - lon0))
    )
    edge = st.tuples(st.sampled_from([lat0 - eps, lat1 + eps]), st.sampled_from([lon0 - eps, lon1 + eps]),
                     unit, unit, st.booleans()).map(
        # a bbox side (a lat or a lon bound) and a point along it, or a corner nudged in
        lambda e: (e[0], lon0 + e[2] * (lon1 - lon0)) if e[4] else (lat0 + e[3] * (lat1 - lat0), e[1])
    )
    corner = st.tuples(st.sampled_from([(lat0, -eps), (lat1, eps)]), st.sampled_from([(lon0, -eps), (lon1, eps)]),
                       unit, unit).map(lambda c: (c[0][0] + c[2] * c[0][1], c[1][0] + c[3] * c[1][1]))
    points = draw(st.lists(st.one_of(node, midpoint, interior, edge, corner), min_size=1, max_size=40))
    (lat_lo, lat_hi), (lon_lo, lon_hi) = g._lat_range, g._lon_range
    return g, [(la, lo) for la, lo in points if lat_lo <= la <= lat_hi and lon_lo <= lo <= lon_hi]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(grids_and_points())
def test_array_snap_equals_scalar_snap(case):
    g, points = case
    table = _point_table(*zip(*points)) if points else np.empty((6, 0))
    assert g._snap_columns(table).tolist() == [g.snap(Coordinate(*p)) for p in points]
    lat, lon = g._lat_range[0], g._lon_range[1]
    for off in ((_beyond(lat, lat), lon), (lat, _beyond(lon, -math.inf))):
        with pytest.raises(DomainError, match="outside the grid bounding box"):
            g._snap_columns(np.concatenate([table, _point_table(*zip(off))], axis=1))


@pytest.mark.parametrize("end", [0, -1])
@pytest.mark.parametrize("axis", ["latitude", "longitude"])
def test_off_grid_endpoint_names_the_first_such_route(intact_grid, end, axis):
    """A pool with off-grid starts or stops raises the scalar snap's message for
    the first such route in pool order."""
    g = intact_grid
    pool = list(generate_pool(g, n=6, seed=2).routes)
    far = Coordinate(40.0, 6.1) if axis == "latitude" else Coordinate(50.76, 7.5)
    off = []
    for k in (2, 4):
        points = list(pool[k].points)
        points[end] = far
        off.append(Route(f"off{k}", points))
    routes = pool[:2] + [off[0]] + pool[2:4] + [off[1]] + pool[4:]
    value = far.lat if axis == "latitude" else far.lon
    message = f"route 'off2' has no grid label: {axis} {value} outside grid bounding box"
    with pytest.raises(DomainError) as exc:
        detour_fractions(g, routes)
    assert str(exc.value) == message
    verdict = assess_shared_ride(g, pool[0], off[1])
    assert verdict.diagnostic == message.replace("off2", "off4")


def test_off_grid_start_is_named_before_stop(intact_grid):
    g = intact_grid
    inside = generate_pool(g, n=1, seed=2).routes[0]
    both = Route("both", [Coordinate(50.76, 7.5), *inside.points[1:-1], Coordinate(40.0, 6.1)])
    message = "route 'both' has no grid label: longitude 7.5 outside grid bounding box"
    with pytest.raises(DomainError, match=re.escape(message)):
        detour_fractions(g, [inside, both])


@st.composite
def built_grids(draw):
    seed = draw(st.one_of(st.integers(-5, 99), st.integers(0, 99).map(np.int64)))
    return GridGraph.build(
        draw(st.integers(1, 8)), draw(st.integers(2, 8)),
        Coordinate(draw(st.floats(-60.0, 89.0)), draw(st.floats(-10.0, 10.0))),
        draw(st.floats(0.3, 3000.0)), draw(st.floats(0.0, 0.5)), seed,
    )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(built_grids())
def test_graph_json_round_trip(g):
    back = GridGraph.from_json_dict(json.loads(json.dumps(g.to_json_dict())))
    assert back == g
    nodes = list(range(g.num_nodes))
    assert np.array(back.source_rows(nodes)).tobytes() == np.array(g.source_rows(nodes)).tobytes()
