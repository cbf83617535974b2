"""Synthetic road grid with shortest-path routing and ground-truth detour checks.

A small 4-neighbour lattice stands in for a real road network: cheap to
build, deterministic, and exact. It answers the expensive question the
similarity filter tries to avoid: how long would the shared ride actually
be, and is the vehicle's detour acceptable?
"""

from __future__ import annotations

import heapq
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import geo
from .errors import DomainError, NoRouteError, ParseError
from .geo import Coordinate, Route

#: A shared ride is compatible while the vehicle's detour stays within half
#: of its original route length.
DETOUR_LIMIT_FRACTION = 0.5


@dataclass(frozen=True)
class OracleAssessment:
    """Ground-truth verdict for one shared-ride candidate pair."""

    detour_m: float
    detour_fraction: float
    compatible: bool
    diagnostic: str | None = None


class GridGraph:
    """Connected 4-neighbour lattice of road nodes with haversine edge weights.

    Node index is ``row * cols + col``, row 0 at the south-west ``origin``.
    Construction via :meth:`build` (seeded random edge removal) or
    :meth:`read_json` / :meth:`from_json_dict`.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        origin: Coordinate,
        spacing_m: float,
        edges: list[tuple[int, int]],
        removal_fraction: float = 0.0,
        seed: int = 0,
    ) -> None:
        if rows < 1 or cols < 1 or rows * cols < 2:
            raise DomainError(f"grid needs at least 2 nodes, got {rows}x{cols}")
        if not 0.0 < spacing_m < math.inf:  # written so that NaN fails it
            raise DomainError(f"spacing_m must be positive and finite, got {spacing_m}")
        _check_removal_fraction(removal_fraction)
        self.rows = rows
        self.cols = cols
        self.origin = origin
        self.spacing_m = spacing_m
        self.removal_fraction = removal_fraction
        self.seed = seed
        self.dlat_deg = math.degrees(spacing_m / geo.EARTH_RADIUS_M)
        self.dlon_deg = math.degrees(
            spacing_m / (geo.EARTH_RADIUS_M * math.cos(math.radians(origin.lat)))
        )
        n = rows * cols
        # Per-node geometry, computed once: every Coordinate (which validates
        # it), the (6, n) Route.point_array over all nodes, and its trig rows.
        self._nodes = [
            Coordinate(origin.lat + r * self.dlat_deg, origin.lon + c * self.dlon_deg)
            for r in range(rows) for c in range(cols)
        ]
        self._table = Route("nodes", self._nodes).point_array
        self.node_lats, self.node_lons = self._table[4], self._table[5]
        self._trig = list(zip(*self._table[:4].tolist()))
        # half a unit of the written precision: edge nodes survive a GeoJSON round trip
        eps = 0.5 * 10.0**-geo.COORD_DECIMALS
        self._lat_range = (self._nodes[0].lat - eps, self._nodes[-1].lat + eps)
        self._lon_range = (self._nodes[0].lon - eps, self._nodes[-1].lon + eps)

        self.edges = sorted((u, v) if u < v else (v, u) for u, v in edges)
        self._adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise DomainError(f"edge ({u}, {v}) invalid for {n} nodes")
            w = geo._distance(self._nodes[u], self._trig[u], self._nodes[v], self._trig[v])
            if not w > 0.0:  # a zero-weight cycle would trap path_nodes
                raise DomainError(
                    f"edge ({u}, {v}) has length {w} m: spacing_m {spacing_m} is too small"
                )
            self._adj[u].append((v, w))
            self._adj[v].append((u, w))
        for nbrs in self._adj:
            nbrs.sort()
        if not _connected_with(n, self.edges):
            raise DomainError("grid graph is not connected")
        # source_rows' (n, max degree) neighbour and weight tables: file edges may
        # repeat or jump, and a pad entry is the node itself at weight inf
        k = max(map(len, self._adj))
        pad = np.array([x + [(u, math.inf)] * (k - len(x)) for u, x in enumerate(self._adj)])
        self._nbr, self._w = pad[..., 0].astype(np.intp), np.ascontiguousarray(pad[..., 1])
        self._w_min = float(self._w.min())
        self._source_dists: dict[int, np.ndarray] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        rows: int = 20,
        cols: int = 20,
        origin: Coordinate = Coordinate(50.75, 6.08),
        spacing_m: float = 250.0,
        removal_fraction: float = 0.10,
        seed: int = 0,
    ) -> "GridGraph":
        """Build the full lattice, then remove a seeded random sample of edges.

        Each removal is kept only if the graph stays connected, so the
        achieved removal count can fall short of the target on extreme
        fractions. Same seed, same parameters: identical edge set.
        """
        _check_removal_fraction(removal_fraction)
        edges = []
        for r in range(rows):
            for c in range(cols):
                u = r * cols + c
                if c + 1 < cols:
                    edges.append((u, u + 1))
                if r + 1 < rows:
                    edges.append((u, u + cols))
        keep = set(edges)
        target = round(removal_fraction * len(edges))
        # the seeded shuffle starts from sorted (u, v) order, which the loops build
        random.Random(seed).shuffle(edges)
        removed = 0
        for cand in edges:
            if removed == target:
                break
            keep.discard(cand)
            if _connected_with(rows * cols, keep):
                removed += 1
            else:
                keep.add(cand)
        return cls(rows, cols, origin, spacing_m, sorted(keep), removal_fraction, seed)

    # -- geometry ----------------------------------------------------------

    def node(self, index: int) -> Coordinate:
        return self._nodes[index]

    @property
    def num_nodes(self) -> int:
        return self.rows * self.cols

    def snap(self, c: Coordinate) -> int:
        """Index of the nearest node; the coordinate must lie inside the grid bbox."""
        lat, lon = c  # one unpacking: a named tuple's field reads cost more
        if not (self._lat_range[0] <= lat <= self._lat_range[1]):
            raise DomainError(f"latitude {lat} outside grid bounding box")
        if not (self._lon_range[0] <= lon <= self._lon_range[1]):
            raise DomainError(f"longitude {lon} outside grid bounding box")
        fr = (lat - self.origin.lat) / self.dlat_deg
        fc = (lon - self.origin.lon) / self.dlon_deg
        trig = geo._point_trig(lat, lon)
        best: tuple[float, int] | None = None
        cols = _cell_span(fc, self.cols)
        for r in _cell_span(fr, self.rows):
            for col in cols:
                idx = r * self.cols + col
                d = geo._distance(c, trig, self._nodes[idx], self._trig[idx])
                if best is None or (d, idx) < best:
                    best = (d, idx)
        assert best is not None
        return best[1]

    def route(self, route_id: str, nodes: list[int]) -> Route:
        """The Route through ``nodes``, its point array gathered from the node table."""
        return Route._from_columns(route_id, self._table.take(nodes, axis=1))

    # -- shortest paths ----------------------------------------------------

    def _check_node(self, i: int) -> None:
        if not (type(i) is int and 0 <= i < self.num_nodes):
            raise DomainError(f"node index {i!r} invalid for {self.num_nodes} nodes")

    def source_distances(self, source: int) -> np.ndarray:
        """Exact shortest-path distance from ``source`` to every node (memoized).

        A binary-heap Dijkstra, faster than ``source_rows`` for one source:
        the traffic of ``path_nodes`` and pool generation.
        """
        self._check_node(source)
        cached = self._source_dists.get(source)
        if cached is not None:
            return cached
        dist = [math.inf] * self.num_nodes  # a list: numpy indexing is slow per item
        dist[source] = 0.0
        heap: list[tuple[float, int]] = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in self._adj[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        result = self._source_dists[source] = np.array(dist)
        return result

    def source_rows(self, sources: Sequence[int]) -> list[np.ndarray]:
        """``source_distances(s)`` for each of ``sources``, the cold ones in one pass.

        The oracle's traffic: many sources at once. All missing rows advance
        together by radius stepping. Each round, a row settles every node
        within the shortest edge weight of its smallest tentative distance m,
        and relaxes their edges. A later candidate fl(d + w), d >= m and
        w >= w_min, is never below fl(m + w_min), as rounding is monotone, so
        no settled node can still improve: the rows are the heap's, bit for
        bit. They are memoized as row views of one block.
        """
        for s in sources:
            self._check_node(s)
        missing = list(dict.fromkeys(s for s in sources if s not in self._source_dists))
        k, n = len(missing), self.num_nodes
        dist = np.full((k, n), math.inf)
        dist[np.arange(k), missing] = 0.0
        tent = dist.copy()  # tentative distances, inf once settled
        flat, tent_flat = dist.reshape(-1), tent.reshape(-1)
        while True:
            m = tent.min(axis=1)
            if np.isinf(m).all():
                break
            # a finished row (m = inf) settles nothing
            limit = np.where(np.isinf(m), -math.inf, m + self._w_min)
            settled = np.flatnonzero(tent <= limit[:, None])
            tent_flat[settled] = math.inf
            u = settled % n
            cand = flat[settled][:, None] + self._w[u]
            at = (settled - u)[:, None] + self._nbr[u]
            better = cand < flat[at]
            at, cand = at[better], cand[better]
            np.minimum.at(flat, at, cand)  # two settled nodes may reach one neighbour
            tent_flat[at] = flat[at]
        self._source_dists.update(zip(missing, dist))
        return [self._source_dists[s] for s in sources]

    def path_nodes(self, source: int, destination: int) -> list[int]:
        """Shortest path as node indices; equal-cost ties break on smallest index.

        The path is reconstructed from the converged distances alone: walking
        back from the destination, the predecessor is the smallest-index
        neighbour u with dist[u] + w(u, v) == dist[v]. This keeps the route a
        pure function of the distance field, independent of visit order.
        """
        self._check_node(destination)
        dist = self.source_distances(source).item  # Python floats: numpy scalars are slow
        if not math.isfinite(dist(destination)):
            raise NoRouteError(f"nodes {source} and {destination} are disconnected")
        path = [destination]
        v = destination
        while v != source:
            pred, dv = -1, dist(v)
            for u, w in self._adj[v]:  # neighbours sorted ascending
                if dist(u) + w == dv:
                    pred = u
                    break
            if pred < 0:  # cannot happen on a converged distance field
                raise NoRouteError(f"no predecessor for node {v}")
            path.append(pred)
            v = pred
        path.reverse()
        return path

    # -- serialization -----------------------------------------------------

    def parameters(self) -> dict:
        """The construction parameters, in the key order written to files."""
        return {
            "rows": self.rows,
            "cols": self.cols,
            "origin": {"lat": self.origin.lat, "lon": self.origin.lon},
            "spacing_m": self.spacing_m,
            "removal_fraction": self.removal_fraction,
            "seed": self.seed,
        }

    def to_json_dict(self) -> dict:
        return {
            **self.parameters(),
            "nodes": [[float(la), float(lo)] for la, lo in zip(self.node_lats, self.node_lons)],
            "edges": [[u, v] for u, v in self.edges],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "GridGraph":
        try:
            edges = [(u, v) for u, v in doc["edges"]]
            ints = [doc["rows"], doc["cols"], doc.get("seed", 0), *(x for e in edges for x in e)]
            if not all(type(x) is int for x in ints):  # JSON integers: no bool, 3.0 or 3.9
                raise ParseError("rows, cols, seed and edge endpoints must be integers")
            lat, lon = doc["origin"]["lat"], doc["origin"]["lon"]
            spacing, removal = doc["spacing_m"], doc.get("removal_fraction", 0.0)
            if not all(type(x) in (int, float) for x in (lat, lon, spacing, removal)):  # no bool
                raise ParseError("origin, spacing_m and removal_fraction must be numbers")
            g = cls(
                rows=doc["rows"],
                cols=doc["cols"],
                origin=Coordinate(float(lat), float(lon)),
                spacing_m=float(spacing),
                edges=edges,
                removal_fraction=float(removal),
                seed=doc.get("seed", 0),
            )
            stored = doc.get("nodes")
            consistent = stored is None or len(stored) == g.num_nodes and all(
                float(la) == g.node_lats[i] and float(lo) == g.node_lons[i]
                for i, (la, lo) in enumerate(stored)
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            if isinstance(exc, DomainError):
                raise
            raise ParseError(f"malformed grid graph document: {exc}") from exc
        if not consistent:
            raise ParseError("node list inconsistent with grid parameters")
        return g

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n", encoding="utf-8")

    @classmethod
    def read_json(cls, path: str | Path) -> "GridGraph":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ParseError(f"invalid JSON in {path}: {exc}") from exc
        try:
            return cls.from_json_dict(doc)
        except ParseError as exc:
            raise ParseError(f"{path}: {exc}") from exc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridGraph):
            return NotImplemented
        return self.parameters() == other.parameters() and self.edges == other.edges

    def __repr__(self) -> str:
        return (
            f"GridGraph(rows={self.rows}, cols={self.cols}, spacing_m={self.spacing_m}, "
            f"edges={len(self.edges)}, seed={self.seed})"
        )


def _check_removal_fraction(x: float) -> None:
    if not 0.0 <= x < 1.0:  # written so that NaN fails it
        raise DomainError(f"removal_fraction must be in [0, 1), got {x}")


def _cell_span(f: float, n: int) -> range:
    """floor(f) through ceil(f), each clipped to [0, n): one or two indices."""
    return range(max(0, min(n - 1, math.floor(f))), max(0, min(n - 1, math.ceil(f))) + 1)


def _connected_with(n: int, edges: Iterable[tuple[int, int]]) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count == n


def shortest_route(g: GridGraph, origin: Coordinate, destination: Coordinate) -> Route:
    """Shortest grid path between the snapped endpoints, as a Route.

    Raises NoRouteError when both endpoints snap to the same node (a route
    needs two distinct points).
    """
    u = g.snap(origin)
    v = g.snap(destination)
    if u == v:
        raise NoRouteError(f"origin and destination snap to the same node {u}")
    return g.route(f"sp-{u}-{v}", g.path_nodes(u, v))


def assess_shared_ride(g: GridGraph, a: Route, r: Route) -> OracleAssessment:
    """Exact detour verdict for vehicle route ``a`` picking up request ``r``.

    The shared ride is A.start -> R.start -> R.end -> A.end, each leg a
    shortest path on the grid. Unroutable endpoints (outside the grid) give
    an incompatible verdict with a diagnostic instead of raising.
    """
    try:
        detour, fraction = (float(m[0, 1]) for m in _detours(g, [a, r]))
    except DomainError as exc:
        return OracleAssessment(
            detour_m=math.inf, detour_fraction=math.inf, compatible=False, diagnostic=str(exc)
        )
    return OracleAssessment(
        detour_m=detour,
        detour_fraction=fraction,
        compatible=fraction <= DETOUR_LIMIT_FRACTION,
        diagnostic="vehicle route has zero length" if math.isinf(fraction) else None,
    )


def detour_fractions(g: GridGraph, routes: Sequence[Route]) -> np.ndarray:
    """Matrix of ``assess_shared_ride(g, routes[i], routes[j]).detour_fraction``.

    Raises DomainError, naming the route, when an endpoint lies off the grid.
    """
    return _detours(g, routes)[1]


def _detours(g: GridGraph, routes: Sequence[Route]) -> tuple[np.ndarray, np.ndarray]:
    """Detour matrices in metres and as fractions of the vehicle route's length.

    Rows are vehicles, columns requests. Each endpoint is snapped once and
    the three legs are gathered from the Dijkstra rows of the snapped
    sources, computed in one ``source_rows`` pass. An endpoint off the grid
    raises DomainError naming its route.
    """
    starts, stops = [], []
    for r in routes:
        try:
            starts.append(g.snap(r.point(0)))
            stops.append(g.snap(r.point(-1)))
        except DomainError as exc:
            raise DomainError(f"route {r.id!r} has no grid label: {exc}") from exc
    n = len(routes)  # the reshape keeps an empty pool (0, 0)
    rows = np.array(g.source_rows(starts + stops)).reshape(2 * n, g.num_nodes)
    to_pickup = rows[:n, starts]
    ride = rows[np.arange(n), stops]
    to_vehicle_end = rows[n:, stops].T
    l_a = np.array([geo.route_length(r) for r in routes])[:, None]
    detour = np.maximum(0.0, to_pickup + ride + to_vehicle_end - l_a)
    with np.errstate(divide="ignore", invalid="ignore"):
        fraction = detour / l_a
    fraction[l_a[:, 0] == 0.0] = math.inf  # zero-length vehicle
    return detour, fraction
