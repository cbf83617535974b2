"""Unoptimized reference implementations used as test oracles.

These trade speed for obviousness: dense matrices, explicit sorts, scalar
arithmetic. Production code must agree with them, not the other way round.
"""

from __future__ import annotations

import math

from dlcss import geo
from dlcss.geo import Route
from dlcss.routing import GridGraph


def reference_segments(a: Route, r: Route) -> list[tuple[float, int, int]]:
    """Two-phase segment selection, replayed literally.

    Dense I x J matrix initialized to -1; phase 1 sorts per-column distance
    lists (ties fall to the smaller i); phase 2 walks rows with the
    inclusive StartJ cursor, sorting candidate lists (ties fall to the
    smaller j) and skipping rows without candidates.
    """
    points_a = a.points
    points_r = r.points
    n_i, n_j = len(points_a), len(points_r)
    dm = [[-1.0] * n_j for _ in range(n_i)]
    for j in range(n_j):
        min_distances = []
        for i in range(n_i):
            min_distances.append([geo.distance(points_a[i], points_r[j]), i])
        min_distances.sort()
        ref_i = min_distances[0][1]
        dm[ref_i][j] = min_distances[0][0]

    segments: list[tuple[float, int, int]] = []
    start_j = 0
    for i in range(n_i):
        min_distances = []
        for j in range(start_j, n_j):
            if dm[i][j] != -1.0:
                min_distances.append([dm[i][j], i, j])
        if not min_distances:
            continue
        min_distances.sort()
        start_j = min_distances[0][2]
        segments.append((min_distances[0][0], min_distances[0][1], min_distances[0][2]))
    return segments


def left_to_right_sum(values) -> float:
    """Floats added one at a time from 0.0 (builtin ``sum`` compensates since Python 3.12)."""
    total = 0.0
    for x in values:
        total = total + x
    return total


def reference_sm(segments: list[tuple[float, int, int]], a: Route) -> float:
    """Similarity score recomputed from scratch, same arithmetic order as spec'd:
    every sum left to right."""
    if not segments:
        raise ValueError("no segments")
    legs = [
        geo.distance(a.points[k], a.points[k + 1]) for k in range(len(a.points) - 1)
    ]
    l_a = left_to_right_sum(legs)
    first = segments[0][1]
    last = segments[-1][1]
    l_sub = left_to_right_sum(legs[first:last])
    if l_sub == 0.0:
        return math.inf
    return (l_a / l_sub) * left_to_right_sum(s[0] for s in segments)


def bellman_ford_path(g: GridGraph, source: int, destination: int) -> list[int]:
    """Shortest path by iterated relaxation, same extraction rule as production.

    Relaxes every directed edge until no distance improves, then walks back
    from the destination choosing the smallest-index neighbour u satisfying
    dist[u] + w == dist[v]. On a converged distance field this is the same
    path the Dijkstra router reports.
    """
    n = g.num_nodes
    arcs = []
    for u, v in g.edges:
        w = geo.distance(g.node(u), g.node(v))
        arcs.append((u, v, w))
        arcs.append((v, u, w))
    dist = [math.inf] * n
    dist[source] = 0.0
    changed = True
    while changed:
        changed = False
        for u, v, w in arcs:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
    if math.isinf(dist[destination]):
        raise ValueError(f"{source} and {destination} disconnected")

    neighbours: dict[int, list[tuple[int, float]]] = {i: [] for i in range(n)}
    for u, v, w in arcs:
        neighbours[v].append((u, w))
    for lst in neighbours.values():
        lst.sort()
    path = [destination]
    v = destination
    while v != source:
        pred = -1
        for u, w in neighbours[v]:
            if dist[u] + w == dist[v]:
                pred = u
                break
        assert pred >= 0, "converged field must yield a predecessor"
        path.append(pred)
        v = pred
    path.reverse()
    return path
