"""Geographic primitives: coordinates, haversine distance, polyline lengths.

Bit-reproducibility note. Scoring pipelines compute distances two ways: one
point pair at a time, and many pairs at once as arrays. Those two paths must
agree to the last bit or threshold decisions become shape-dependent. numpy's
SIMD dispatch breaks that promise for transcendental ufuncs (the same input
can round differently in a vectorized loop than in a scalar call), so the
haversine here is restructured: per-point sines and cosines come from
math.sin / math.cos once per point, pairs are combined with IEEE-exact
multiplies and adds only (identical in every lane), and the single remaining
transcendental, arcsin, goes through np.arcsin in both the scalar and the
array path. The matcher's unit-vector dot products, a cheap proxy, only pick
candidate pairs; this exact expression decides among them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError

EARTH_RADIUS_M = 6_371_000.0

_EARTH_DIAMETER_M = 2.0 * EARTH_RADIUS_M

#: Decimal places of the degrees written to files (1e-7 deg, about 1 cm).
COORD_DECIMALS = 7

#: The one range rule of ``Coordinate`` and ``coordinates``: |lat| <= 90, |lon| <= 180
#: (each written so that NaN fails it).
LAT_LIMIT, LON_LIMIT = 90.0, 180.0


class _LatLon(NamedTuple):
    lat: float
    lon: float


class Coordinate(_LatLon):
    """A WGS-style point, an immutable validated ``(lat, lon)`` tuple; lon must be
    pre-normalized to [-180, 180]."""

    __slots__ = ()

    def __new__(cls, lat: float, lon: float) -> Coordinate:
        if not -LAT_LIMIT <= lat <= LAT_LIMIT:
            raise DomainError(f"latitude {lat} outside [-90, 90]")
        if not -LON_LIMIT <= lon <= LON_LIMIT:
            raise DomainError(f"longitude {lon} outside [-180, 180]")
        return tuple.__new__(cls, (lat, lon))

    def _replace(self, **changes) -> Coordinate:
        return Coordinate(**{**self._asdict(), **changes})


def coordinates(lats: Sequence, lons: Sequence) -> tuple[Coordinate, ...]:
    """``Coordinate(float(lat), float(lon))`` for each pair of the two number sequences.

    One check covers every point: all values are finite (their sum is) and the
    extremes are in range. Only if it fails does each point go through
    ``Coordinate``, which raises for the first bad one, latitude before
    longitude (or ``float`` raises OverflowError for a huge integer).
    """
    try:
        flat, flon = list(map(float, lats)), list(map(float, lons))
        ok = (
            math.isfinite(sum(flat) + sum(flon))
            and -LAT_LIMIT <= min(flat) and max(flat) <= LAT_LIMIT
            and -LON_LIMIT <= min(flon) and max(flon) <= LON_LIMIT
        )
    except OverflowError:
        ok = False
    if ok:  # the checked points skip Coordinate.__new__'s per-point check
        return tuple(map(tuple.__new__, itertools.repeat(Coordinate), zip(flat, flon)))
    return tuple(Coordinate(float(lat), float(lon)) for lat, lon in zip(lats, lons))


def _point_trig(lat: float, lon: float) -> tuple[float, float, float, float]:
    phi = math.radians(lat)
    lam = math.radians(lon)
    return math.sin(phi), math.cos(phi), math.sin(lam), math.cos(lam)


def _haversine_h(sphi1, cphi1, slam1, clam1, sphi2, cphi2, slam2, clam2):
    """hav(central angle) from per-point trig; scalars and arrays alike.

    hav(d) = hav(dphi) + cos(phi1) cos(phi2) hav(dlam), with the angle
    differences expanded into products of per-point terms so that only
    IEEE-exact operations touch pair-dependent values. Both the scalar and
    the matrix distance path run this exact expression, in this exact order.
    """
    cc = cphi1 * cphi2
    cos_dphi = cc + sphi1 * sphi2
    cos_dlam = clam1 * clam2 + slam1 * slam2
    return 0.5 * (1.0 - cos_dphi) + cc * (0.5 * (1.0 - cos_dlam))


@dataclass(frozen=True)
class Route:
    """An ordered polyline with identity; point order encodes travel direction."""

    id: str
    points: tuple[Coordinate, ...]

    def __init__(self, id: str, points) -> None:
        pts = tuple(points)
        if len(pts) < 2:
            raise DomainError(f"route {id!r} needs at least 2 points, got {len(pts)}")
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "points", pts)

    @cached_property
    def point_array(self) -> np.ndarray:
        """(6, n) float64 rows: sin phi, cos phi, sin lam, cos lam, lat, lon.

        Column k is ``_point_trig`` of point k and its lat, lon: the same libm
        calls, made row by row.
        """
        return _point_table(*zip(*self.points))

    @cached_property
    def leg_lengths_m(self) -> tuple[float, ...]:
        p = self.point_array
        return tuple(distances(p[:, :-1], p[:, 1:]).tolist())

    @cached_property
    def length_m(self) -> float:
        """The polyline's length, ``left_sum(leg_lengths_m)``, summed once."""
        return left_sum(self.leg_lengths_m)


def _point_table(lats: Sequence[float], lons: Sequence[float]) -> np.ndarray:
    """``Route.point_array`` of the points with these latitudes and longitudes."""
    phi, lam = list(map(math.radians, lats)), list(map(math.radians, lons))
    trig = [list(map(f, x)) for x in (phi, lam) for f in (math.sin, math.cos)]
    return np.array([*trig, lats, lons], dtype=np.float64)  # C-contiguous rows


def fill_arrays(routes: Sequence[Route]) -> None:
    """Fill ``point_array``, ``leg_lengths_m`` and ``length_m`` of every route that
    lacks its legs, with one trig pass and one ``distances`` call for them all.

    Bit-equal to the per-route properties: the same libm calls on the same
    values, and the same elementwise expression, whose legs across two routes
    are dropped. The point arrays are column views of one table for the pool
    (a copy each held 0.3 MiB more peak RSS over an evaluation). A route whose
    ``point_array`` is filled (``GridGraph.route``) keeps it.
    """
    todo = [r for r in routes if "leg_lengths_m" not in vars(r)]
    if not todo:
        return
    bare = [r for r in todo if "point_array" not in vars(r)]
    if bare:
        table = _point_table(*zip(*itertools.chain.from_iterable(r.points for r in bare)))
        ends = list(itertools.accumulate(len(r.points) for r in bare))
        # cached_property has no setter: this fills the cache the property reads
        for r, p in zip(bare, np.split(table, ends[:-1], axis=1)):
            object.__setattr__(r, "point_array", p)
    q = np.concatenate([r.point_array for r in todo], axis=1)
    legs, end = distances(q[:, :-1], q[:, 1:]).tolist(), 0
    for r in todo:
        start, end = end, end + len(r.points)
        own = tuple(legs[start : end - 1])
        object.__setattr__(r, "leg_lengths_m", own)
        object.__setattr__(r, "length_m", left_sum(own))


def distance(a: Coordinate, b: Coordinate) -> float:
    """Great-circle distance in meters on a sphere of radius 6,371,000 m."""
    return _distance(a, _point_trig(*a), b, _point_trig(*b))


def _distance(a: Coordinate, trig_a: tuple, b: Coordinate, trig_b: tuple) -> float:
    """``distance`` from the points' precomputed ``_point_trig`` tuples."""
    if a == b:  # as (lat, lon) tuples: equal fields, as no Coordinate holds a NaN
        return 0.0
    h = min(max(_haversine_h(*trig_a, *trig_b), 0.0), 1.0)
    return float(_EARTH_DIAMETER_M * np.arcsin(math.sqrt(h)))


def distances(p, q) -> np.ndarray:
    """Elementwise distances between point sets laid out as ``Route.point_array`` (or
    column selections or broadcast views of it), bit-equal to scalar calls."""
    h = _haversine_h(*p[:4], *q[:4])
    np.clip(h, 0.0, 1.0, out=h)
    d = _EARTH_DIAMETER_M * np.arcsin(np.sqrt(h))
    d[(p[4] == q[4]) & (p[5] == q[5])] = 0.0
    return d


def left_sum(values) -> float:
    """Floats added one at a time, left to right, from 0.0.

    The one summation order of the metric's lengths and sums. Builtin ``sum``
    follows it only before Python 3.12, which compensates float sums.
    """
    total = 0.0
    for x in values:
        total += x
    return total


def route_length(r: Route) -> float:
    """Polyline length: sum of consecutive-point distances, in meters (``Route.length_m``)."""
    return r.length_m


def arc_length_between(r: Route, i: int, j: int) -> float:
    """Polyline length from point i to point j along the route."""
    n = len(r.points)
    if not (0 <= i <= j < n):
        raise DomainError(f"invalid arc span [{i}, {j}] for {n} points")
    return left_sum(r.leg_lengths_m[i:j])
