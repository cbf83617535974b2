"""Route pools: seeded synthetic generation and GeoJSON interchange.

Pools are plain FeatureCollections of LineString features so they can be
dropped into any geospatial viewer. Coordinates are written with 7 decimal
places (about 1 cm), which makes write/read cycles idempotent after the
first one.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from . import geo
from .errors import DomainError, GenerationError, ParseError, check_integer
from .geo import COORD_DECIMALS, LAT_LIMIT, LON_LIMIT, Coordinate, Route
from .routing import GridGraph

#: Resampling attempts per route before generation gives up.
MAX_ATTEMPTS_PER_ROUTE = 1000


@dataclass
class RoutePool:
    """A named collection of routes plus the parameters that produced it."""

    routes: list[Route]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for r in self.routes:
            if r.id in seen:
                raise DomainError(f"duplicate route id {r.id!r} in pool")
            seen.add(r.id)

    def __len__(self) -> int:
        return len(self.routes)


def generate_pool(g: GridGraph, n: int, seed: int, min_length_m: float = 0.0) -> RoutePool:
    """Generate ``n`` shortest-path routes between random distinct grid nodes.

    Origin/destination node pairs are sampled uniformly and resampled until
    the resulting route is at least ``min_length_m`` long. Deterministic per
    seed, an integer. Raises GenerationError when ``min_length_m`` is
    unattainable.

    Each attempt takes two ``randrange`` calls whatever its outcome, so
    attempts are drawn ahead in chunks without changing the sequence; the
    Dijkstra rows of a chunk's sources come from one ``source_rows`` pass.
    """
    n = check_integer(n, "pool size n", 1)
    seed = check_integer(seed, "seed")
    if not min_length_m >= 0.0:  # written so that NaN fails it
        raise DomainError(f"min_length_m must be >= 0, got {min_length_m}")
    rng = random.Random(seed)
    routes: list[Route] = []
    tried = drawn = 0  # attempts on the current route, and in all chunks
    while len(routes) < n:
        # the missing routes at the attempts per route so far, at most doubling the draws
        size = min(-(-(n - len(routes)) * drawn // len(routes)), drawn) if routes else max(drawn, n)
        chunk = [(rng.randrange(g.num_nodes), rng.randrange(g.num_nodes)) for _ in range(size)]
        drawn += size
        g.source_rows([u for u, v in chunk if u != v])
        for u, v in chunk:
            tried += 1
            route = g.route(f"r{len(routes):03d}", g.path_nodes(u, v)) if u != v else None
            if route is not None and geo.route_length(route) >= min_length_m:
                routes.append(route)
                tried = 0
                if len(routes) == n:
                    break
            elif tried == MAX_ATTEMPTS_PER_ROUTE:
                raise GenerationError(
                    f"could not draw a route of length >= {min_length_m} m "
                    f"after {MAX_ATTEMPTS_PER_ROUTE} attempts (route {len(routes)} of {n})"
                )
    metadata = {"seed": seed, "n": n, "min_length_m": min_length_m, "grid": g.parameters()}
    return RoutePool(routes=routes, metadata=metadata)


def write_geojson(pool: RoutePool, path: str | Path) -> None:
    """Write the pool as a GeoJSON FeatureCollection of LineStrings.

    Coordinate order is [lon, lat] per the GeoJSON convention; pool metadata
    goes into the collection's top-level ``properties``.
    """
    features = []
    for r in pool.routes:
        coords = [[round(lon, COORD_DECIMALS), round(lat, COORD_DECIMALS)]
                  for lon, lat in r.point_array[5:3:-1].T.tolist()]
        line = {"type": "LineString", "coordinates": coords}
        features.append({"type": "Feature", "properties": {"id": r.id}, "geometry": line})
    doc = {"type": "FeatureCollection", "properties": pool.metadata, "features": features}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def read_geojson(path: str | Path) -> RoutePool:
    """Read a route pool written by write_geojson.

    Raises ParseError (with the offending feature index) on malformed JSON,
    non-LineString geometry, missing ids, fewer than 2 coordinates, a
    coordinate that is no number, out of range or too large for a float, or
    top-level properties that are neither an object nor null. Every route's
    arrays and legs come from one trig table and one ``distances`` call.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise ParseError(f"{path}: expected a GeoJSON FeatureCollection")
    features = doc.get("features")
    if not isinstance(features, list):
        raise ParseError(f"{path}: missing features array")
    lines: list[tuple[str, list]] = []
    for i, feat in enumerate(features):
        try:
            lines.append(_id_and_line(feat))
        except ParseError as exc:
            _pool_lat_lon(lines)  # a bad position in an earlier feature is named first
            raise ParseError(f"feature {i}: {exc}") from None
    lats, lons = _pool_lat_lon(lines)
    metadata = doc.get("properties")
    if metadata is None:
        metadata = {}
    elif not isinstance(metadata, dict):
        raise ParseError(f"{path}: top-level properties must be an object")
    table = geo._point_table(lats, lons)
    legs = geo.distances(table[:, :-1], table[:, 1:]).tolist()  # those across two routes are dropped
    routes, end = [], 0
    for rid, coords in lines:
        start, end = end, end + len(coords)
        routes.append(Route._from_columns(rid, table[:, start:end], tuple(legs[start : end - 1])))
    try:
        return RoutePool(routes=routes, metadata=metadata)
    except DomainError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _id_and_line(feat) -> tuple[str, list]:
    """A feature's route id and LineString coordinates; ParseError if it has none."""
    geom = feat.get("geometry") if isinstance(feat, dict) else None
    if not isinstance(geom, dict) or geom.get("type") != "LineString":
        raise ParseError("geometry must be a LineString")
    coords = geom.get("coordinates")
    if not isinstance(coords, list) or len(coords) < 2:
        raise ParseError("LineString needs at least 2 coordinates")
    props = feat.get("properties") or {}
    rid = props.get("id") if isinstance(props, dict) else None
    if not isinstance(rid, str) or not rid:
        raise ParseError("missing route id in properties.id")
    return rid, coords


def _pool_lat_lon(lines: list[tuple[str, list]]) -> tuple[list[float], list[float]]:
    """``_lat_lon`` of every position of the pool, in one call; if that fails,
    one call per feature, raising ParseError for the first bad one."""
    try:
        return _lat_lon([p for _, coords in lines for p in coords])
    except (ParseError, DomainError, OverflowError):
        for i, (_, coords) in enumerate(lines):
            try:
                _lat_lon(coords)
            except (ParseError, DomainError, OverflowError) as exc:
                raise ParseError(f"feature {i}: {exc}") from exc
        raise


def _lat_lon(positions: list) -> tuple[list[float], list[float]]:
    """The latitudes and longitudes of GeoJSON positions as floats, each check one
    pass over them all (finite sums, extremes in range); an altitude is dropped.
    If the range fails, ``Coordinate`` raises for the first bad point, latitude
    before longitude (or ``float`` raises OverflowError for a huge integer)."""
    if not {*map(type, positions)} <= {list} or min(map(len, positions), default=2) < 2:
        raise ParseError("every position needs at least [lon, lat]")
    lons, lats, *_ = zip(*positions) if positions else ((), ())
    if not {*map(type, lons), *map(type, lats)} <= {int, float}:  # no bool
        raise ParseError("longitude and latitude must be numbers")
    try:
        flat, flon = list(map(float, lats)), list(map(float, lons))
        ok = (
            math.isfinite(sum(flat) + sum(flon))
            and -LAT_LIMIT <= min(flat, default=0.0) and max(flat, default=0.0) <= LAT_LIMIT
            and -LON_LIMIT <= min(flon, default=0.0) and max(flon, default=0.0) <= LON_LIMIT
        )
    except OverflowError:
        ok = False
    if not ok:
        for lat, lon in zip(lats, lons):
            Coordinate(float(lat), float(lon))
    return flat, flon
