"""Computations made apart from the program, used only to check its outputs.

Nothing here calls into dlcss except the project's own reference scorer,
``tests/reference.py``, whose bit-for-bit agreement with the production
scorer is the project's contract, and ``dlcss.geo.distance`` as the length
of one edge or leg. Nearest nodes come from a brute-force scan of every node
and shortest paths from Floyd-Warshall over the edge list, so an error in
the program's snapping, Dijkstra or detour arithmetic cannot hide behind the
same error in the check.

Edge and leg lengths come from the program's own haversine because a
textbook haversine disagrees with it by up to ~3e-7 relative at the grid's
250 m edges (the program forms ``1 - cos`` of nearly equal numbers, see
CHANGES.md), which would move detour fractions by more than the 1e-9 label
tolerance. With the same leg lengths the two oracles differ only in the
order of additions.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np

DETOUR_LIMIT = 0.5
#: Oracle labels may differ from the program's only this close to the limit.
BOUNDARY_TOL = 1e-9


def load_reference(root: Path):
    """Import ``tests/reference.py`` from the checkout under test."""
    path = root / "tests" / "reference.py"
    spec = importlib.util.spec_from_file_location("dlcss_reference", path)
    if spec is None or not path.is_file():
        raise FileNotFoundError(f"reference scorer not found at {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class GridOracle:
    """All-pairs shortest distances of a grid graph, computed independently.

    Edge and leg lengths come from ``dlcss.geo.distance`` (see above).
    """

    def __init__(self, g) -> None:
        # Looked up here rather than at import: run.py puts the checkout's
        # src/ on sys.path before it builds an oracle.
        from dlcss.geo import distance

        self.distance = distance
        self.lats = np.asarray(g.node_lats, dtype=float)
        self.lons = np.asarray(g.node_lons, dtype=float)
        n = len(self.lats)
        self.node_at = {(float(la), float(lo)): i for i, (la, lo) in enumerate(zip(self.lats, self.lons))}
        self.edges = {(min(u, v), max(u, v)) for u, v in g.edges}
        d = np.full((n, n), math.inf)
        np.fill_diagonal(d, 0.0)
        for u, v in self.edges:
            d[u, v] = d[v, u] = distance(g.node(u), g.node(v))
        for k in range(n):  # Floyd-Warshall
            np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
        self.dist = d

    def snap(self, lat: float, lon: float) -> int:
        """Nearest node by a haversine scan over every node; ties go to the smaller index."""
        p1 = np.radians(lat)
        p2 = np.radians(self.lats)
        h = np.sin((p2 - p1) / 2) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(
            np.radians(self.lons - lon) / 2
        ) ** 2
        return int(np.argmin(h))

    def polyline_m(self, points) -> float:
        return sum((self.distance(p, q) for p, q in zip(points, points[1:])), 0.0)

    def route_ends(self, route) -> tuple[int, int, float]:
        """(start node, end node, polyline length) of a route."""
        p, q = route.points[0], route.points[-1]
        return self.snap(p.lat, p.lon), self.snap(q.lat, q.lon), self.polyline_m(route.points)

    def detour_fraction(self, a_ends, r_ends) -> float:
        """Vehicle detour A.start -> R.start -> R.end -> A.end over A's length."""
        a0, a1, l_a = a_ends
        r0, r1, _ = r_ends
        if l_a == 0.0:
            return math.inf
        shared = self.dist[a0, r0] + self.dist[r0, r1] + self.dist[r1, a1]
        return float(max(0.0, shared - l_a) / l_a)

    def path_problem(self, points, start: int, end: int) -> str | None:
        """Why ``points`` is not a shortest grid walk from ``start`` to ``end``, or None."""
        nodes = [self.node_at.get((p.lat, p.lon)) for p in points]
        if any(v is None for v in nodes):
            return "a point is not a grid node"
        if nodes[0] != start or nodes[-1] != end:
            return f"walk runs {nodes[0]}->{nodes[-1]}, expected {start}->{end}"
        for u, v in zip(nodes, nodes[1:]):
            if (min(u, v), max(u, v)) not in self.edges:
                return f"step {u}->{v} is not a grid edge"
        want = self.dist[start, end]
        got = self.polyline_m(points)
        if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-6):
            return f"walk length {got} m, shortest is {want} m"
        return None


def ordering_problem(segments) -> str | None:
    """Temporal order of (a_index, r_index) pairs, as the method requires."""
    for (a0, r0), (a1, r1) in zip(segments, segments[1:]):
        if not a1 > a0:
            return f"a_index {a0} -> {a1} does not increase"
        if not r1 >= r0:
            return f"r_index {r0} -> {r1} decreases"
    return None
