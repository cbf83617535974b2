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

import math
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError

EARTH_RADIUS_M = 6_371_000.0

_EARTH_DIAMETER_M = 2.0 * EARTH_RADIUS_M

#: Decimal places of the degrees written to files (1e-7 deg, about 1 cm).
COORD_DECIMALS = 7

#: The one range rule of ``Coordinate`` and of ``pools.read_geojson``'s check:
#: |lat| <= 90, |lon| <= 180 (each written so that NaN fails it).
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

    @classmethod
    def _make(cls, iterable) -> Coordinate:  # the named tuple's _replace builds through it
        return cls(*iterable)


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


class Route:
    """An ordered polyline with identity; point order encodes travel direction.

    Stored as its read-only ``point_array``; ``points`` is built from that on
    first read. Immutable; equality and hash are those of ``(id, points)``.
    """

    id: str
    point_array: np.ndarray  # (6, n) float64 rows: sin phi, cos phi, sin lam, cos lam, lat, lon

    def __init__(self, id: str, points) -> None:
        pts = tuple(points)
        lats, lons = zip(*pts) if pts else ((), ())
        self._store(id, _point_table(lats, lons))

    @classmethod
    def _from_columns(cls, id: str, point_array: np.ndarray, leg_lengths_m=None) -> Route:
        """The route whose ``point_array`` is these columns (built as ``Route``
        builds them), and whose legs are these when given."""
        route = cls.__new__(cls)
        route._store(id, point_array)
        if leg_lengths_m is not None:
            vars(route)["leg_lengths_m"] = leg_lengths_m
        return route

    def _store(self, id: str, point_array: np.ndarray) -> None:
        if point_array.shape[1] < 2:
            raise DomainError(f"route {id!r} needs at least 2 points, got {point_array.shape[1]}")
        point_array.flags.writeable = False  # a reader's routes share one pool table
        vars(self).update(id=id, point_array=point_array)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    @cached_property
    def points(self) -> tuple[Coordinate, ...]:
        """Built from the lat and lon rows on first read, then kept as the legs are."""
        return tuple(map(Coordinate, *self.point_array[4:].tolist()))

    def point(self, k: int) -> Coordinate:
        """``points[k]``, without building the others."""
        return Coordinate(*self.point_array[4:, k].tolist())

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.id == other.id and np.array_equal(self.point_array[4:], other.point_array[4:])

    def __hash__(self) -> int:
        return hash((self.id, self.points))

    def __repr__(self) -> str:
        return f"Route(id={self.id!r}, points={self.points!r})"

    @cached_property
    def leg_lengths_m(self) -> tuple[float, ...]:
        p = self.point_array
        return tuple(distances(p[:, :-1], p[:, 1:]).tolist())

    @cached_property
    def length_m(self) -> float:
        """The polyline's length, ``left_sum(leg_lengths_m)``, summed once."""
        return left_sum(self.leg_lengths_m)


def _point_table(lats: Sequence[float], lons: Sequence[float]) -> np.ndarray:
    """``Route.point_array`` of the points with these latitudes and longitudes.

    Column k is ``_point_trig`` of point k and its lat, lon: the same libm
    calls, made row by row.
    """
    phi, lam = list(map(math.radians, lats)), list(map(math.radians, lons))
    trig = [list(map(f, x)) for x in (phi, lam) for f in (math.sin, math.cos)]
    return np.array([*trig, lats, lons], dtype=np.float64)  # C-contiguous rows


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
    n = len(r.leg_lengths_m) + 1
    if not (0 <= i <= j < n):
        raise DomainError(f"invalid arc span [{i}, {j}] for {n} points")
    return left_sum(r.leg_lengths_m[i:j])
