"""Route pools: seeded synthetic generation and GeoJSON interchange.

Pools are plain FeatureCollections of LineString features so they can be
dropped into any geospatial viewer. Coordinates are written with 7 decimal
places (about 1 cm), which makes write/read cycles idempotent after the
first one.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from . import geo
from .errors import DomainError, GenerationError, ParseError, check_integer
from .geo import COORD_DECIMALS, Route
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
    seed. Raises GenerationError when ``min_length_m`` is unattainable.
    """
    n = check_integer(n, "pool size n", 1)
    if not min_length_m >= 0.0:  # written so that NaN fails it
        raise DomainError(f"min_length_m must be >= 0, got {min_length_m}")
    rng = random.Random(seed)
    routes: list[Route] = []
    for k in range(n):
        for _ in range(MAX_ATTEMPTS_PER_ROUTE):
            u = rng.randrange(g.num_nodes)
            v = rng.randrange(g.num_nodes)
            if u == v:
                continue
            route = g.route(f"r{k:03d}", g.path_nodes(u, v))
            if geo.route_length(route) >= min_length_m:
                routes.append(route)
                break
        else:
            raise GenerationError(
                f"could not draw a route of length >= {min_length_m} m "
                f"after {MAX_ATTEMPTS_PER_ROUTE} attempts (route {k} of {n})"
            )
    metadata = {
        "seed": seed,
        "n": n,
        "min_length_m": min_length_m,
        "grid": g.parameters(),
    }
    return RoutePool(routes=routes, metadata=metadata)


def write_geojson(pool: RoutePool, path: str | Path) -> None:
    """Write the pool as a GeoJSON FeatureCollection of LineStrings.

    Coordinate order is [lon, lat] per the GeoJSON convention; pool metadata
    goes into the collection's top-level ``properties``.
    """
    features = []
    for r in pool.routes:
        coords = [
            [round(p.lon, COORD_DECIMALS), round(p.lat, COORD_DECIMALS)] for p in r.points
        ]
        features.append(
            {
                "type": "Feature",
                "properties": {"id": r.id},
                "geometry": {"type": "LineString", "coordinates": coords},
            }
        )
    doc = {
        "type": "FeatureCollection",
        "properties": pool.metadata,
        "features": features,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def read_geojson(path: str | Path) -> RoutePool:
    """Read a route pool written by write_geojson.

    Raises ParseError (with the offending feature index) on malformed JSON,
    non-LineString geometry, missing ids, fewer than 2 coordinates, a
    coordinate that is no number, out of range or too large for a float, or
    top-level properties that are neither an object nor null.
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
    routes: list[Route] = []
    for i, feat in enumerate(features):
        geom = feat.get("geometry") if isinstance(feat, dict) else None
        if not isinstance(geom, dict) or geom.get("type") != "LineString":
            raise ParseError(f"feature {i}: geometry must be a LineString")
        coords = geom.get("coordinates")
        if not isinstance(coords, list) or len(coords) < 2:
            raise ParseError(f"feature {i}: LineString needs at least 2 coordinates")
        props = feat.get("properties") or {}
        rid = props.get("id") if isinstance(props, dict) else None
        if not isinstance(rid, str) or not rid:
            raise ParseError(f"feature {i}: missing route id in properties.id")
        if {*map(type, coords)} != {list} or min(map(len, coords)) < 2:
            raise ParseError(f"feature {i}: every position needs at least [lon, lat]")
        lons, lats, *_ = zip(*coords)  # an altitude (RFC 7946 section 3.1.1) is dropped
        if not {*map(type, lons), *map(type, lats)} <= {int, float}:  # no bool
            raise ParseError(f"feature {i}: longitude and latitude must be numbers")
        try:
            routes.append(Route(rid, geo.coordinates(lats, lons)))
        except (DomainError, OverflowError) as exc:
            raise ParseError(f"feature {i}: {exc}") from exc
    metadata = doc.get("properties")
    if metadata is None:
        metadata = {}
    elif not isinstance(metadata, dict):
        raise ParseError(f"{path}: top-level properties must be an object")
    try:
        return RoutePool(routes=routes, metadata=metadata)
    except DomainError as exc:
        raise ParseError(f"{path}: {exc}") from exc
