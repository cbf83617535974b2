"""Two-phase nearest-segment route matching and the similarity score built on it.

Given a vehicle route A and a requested route R, the matcher first assigns
every request point to its closest vehicle point, then walks the vehicle
route once, greedily picking for each vehicle point the shortest assigned
segment that does not step backwards along R. The surviving closed line
segments describe where and how tightly the two routes overlap, and they
aggregate into a single score: lower is better, 0 means R hugs A exactly.

The score is directional: A is the vehicle, R the request. Swapping the
arguments generally changes the result.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import geo
from .errors import DomainError
from .geo import Route

#: Sentinel score for pairs whose matched span has zero length (a single
#: matched point). Compares greater than every finite score.
NO_OVERLAP = math.inf

#: Cells per phase-one tile (I vehicle points times TILE_CELLS // I request points).
#: 131,072 puts a 100-point vehicle against 1,000 columns in one tile: phase one
#: of 40 such vehicles took 0.83x the time of 65,536 (2 tiles each), and 262,144
#: the same as 131,072. A grid pool (~15 rows, ~370 distinct points) is one tile
#: either way.
TILE_CELLS = 131_072

#: Pairs from which ``score_table`` runs phase two for all pairs at once and
#: scores columns. Both paths took about the same time for 1 vehicle x 99
#: grid-pool requests (batched 1.01-1.12x the walk); below that, one walk per
#: request is faster (1.5-1.9x at a meeting search's 13).
BATCH_MIN_PAIRS = 100

#: Request columns (and vehicle rows) per phase-two block of ``_table_segments``.
#: A 9,900-pair grid-pool table peaked at 1.6 MB (tracemalloc) with 8,192 and
#: 2.6 MB with 16,384; 4,096 cost 100-point routes ~5% more time.
BLOCK_COLUMNS = 8_192

#: Phase one's candidate band in h units, relative and absolute (see ``_phase_one``).
_BAND_REL, _BAND_ABS = 1e-9, 4 * 64 * float(np.finfo(np.float64).eps)


class DlcssSegment(NamedTuple):
    """One closed line segment linking vehicle point ``a_index`` to request point ``r_index``.

    Scoring carries the same triples as plain tuples per pair, or as
    ``SegmentColumns`` per block of a batched table.
    """

    distance_m: float
    a_index: int
    r_index: int


@dataclass(frozen=True)
class DlcssResult:
    """Full output of one route comparison."""

    segments: tuple[DlcssSegment, ...]
    sum_segments_m: float
    l_sub_a_m: float
    l_a_m: float
    sm: float  # NO_OVERLAP when the matched span is a single point


def _walk(rows: list, dists: list, cols: list) -> list[tuple[float, int, int]]:
    """Phase two over one request's set cells sorted by (row, distance, column).

    A row's first cell at a column >= the cursor is its shortest candidate
    (ties: smallest column), and becomes a ``(distance_m, a_index, r_index)``
    segment. The cursor moves to that column, inclusive, so one request point
    may anchor consecutive rows.
    """
    segments, cursor, taken = [], 0, -1
    for seg in zip(dists, rows, cols):
        if seg[1] != taken and seg[2] >= cursor:
            segments.append(seg)
            taken, cursor = seg[1], seg[2]
    return segments


def _unit_vectors(x: np.ndarray) -> np.ndarray:
    """cos phi (cos lam, sin lam), sin phi of ``Route.point_array`` columns."""
    return np.concatenate((x[1] * x[3:1:-1], x[:1]))


def _phase_one(p, pu, q, qu) -> tuple[np.ndarray, np.ndarray]:
    """Closest vehicle point (row) and its distance for each request column.

    ``p`` and ``q`` are laid out as ``Route.point_array``, ``pu`` and ``qu``
    are their ``_unit_vectors``. Ties go to the smallest row. Per column tile,
    one matmul of unit vectors picks candidates: (1 - dot) / 2 equals
    ``_haversine_h`` in exact arithmetic on the same trig, so it is monotone
    in the angle, and only cells in the band of their column's best proxy get
    the exact distance. No winner lies outside the band. h and its proxy
    differ by a few eps (at most 1 eps, measured from 180 down to 1e-7
    degrees apart), far inside the absolute part. A row whose d does not
    exceed the best row's (equal after rounding, or an np.arcsin ulp) has an
    h at most a few ulp above it: the relative part. A same-point cell, d = 0
    by the mask, has an h and a proxy within a few eps of 0, and no proxy lies
    further below. A column has more than one cell in its band iff its
    runner-up (the best proxy with the candidate's set to -inf) reaches the
    band's floor, as the candidate is always in its own band; only those
    columns take their band and compare exact distances. So a column's result
    reads only that column of ``q``.
    """
    total = q.shape[1]
    rows, dists = np.empty(total, dtype=np.intp), np.empty(total)
    width = max(1, TILE_CELLS // p.shape[1])
    for c0 in range(0, total, width):
        tile = slice(c0, c0 + width)
        dot = qu[:, tile].T @ pu  # (columns, rows): nonzero runs column by column
        at = np.arange(dot.shape[0])
        cand = dot.argmax(axis=1)
        best = dot[at, cand]
        floor = best - 2.0 * (np.maximum(0.0, 0.5 * (1.0 - best)) * _BAND_REL + _BAND_ABS)
        d = geo.distances(p[:, cand], q[:, tile])
        dot[at, cand] = -np.inf  # the runner-up is in the band iff the band has 2+ cells
        tied = np.flatnonzero(dot[at, dot.argmax(axis=1)] >= floor)
        if len(tied):  # per tied column, the smallest d, then the smallest row
            dot[tied, cand[tied]] = best[tied]
            cols, rivals = np.nonzero(dot[tied] >= floor[tied, None])
            d_tied = geo.distances(p[:, rivals], q[:, c0 + tied[cols]])
            order = np.lexsort((d_tied, cols))  # stable: equal distances keep row order
            first = order[np.flatnonzero(np.diff(cols[order], prepend=-1))]
            cand[tied], d[tied] = rivals[first], d_tied[first]
        rows[tile], dists[tile] = cand, d
    return rows, dists


def _segments(a: Route, requests: Sequence[Route]) -> list[list[tuple[float, int, int]]]:
    """Both phases for vehicle ``a`` against each request, in request order.

    Phase one (``_phase_one``) runs over every column of the requests. A
    stable order by (request, row, distance) then feeds one ``_walk`` per
    request. Requires at least one request.
    """
    lens = [r.point_array.shape[1] for r in requests]
    p = a.point_array
    q = np.concatenate([r.point_array for r in requests], axis=1)
    # unit vectors per call, as fresh routes gain no cache
    rows, dists = _phase_one(p, _unit_vectors(p), q, _unit_vectors(q))
    # by (request, row, distance), ties in j order: two stable sorts, faster than a lexsort
    by_dist = np.argsort(dists, kind="stable")
    request_of = np.repeat(np.arange(len(lens)), lens)
    order = by_dist[np.argsort((request_of * p.shape[1] + rows)[by_dist], kind="stable")]
    starts = np.cumsum([0, *lens[:-1]])
    rows_s, dists_s = rows[order].tolist(), dists[order].tolist()
    cols_s = (order - starts[request_of]).tolist()  # j within its request's block

    out, end = [], 0
    for n in lens:
        start, end = end, end + n
        out.append(_walk(rows_s[start:end], dists_s[start:end], cols_s[start:end]))
    return out


def _walk_pairs(
    cell_bucket: np.ndarray, bucket_pair: np.ndarray, j: np.ndarray, dists: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_walk`` for many pairs at once, in rounds of array operations.

    A bucket is one (pair, row), numbered in (pair, row) order, and
    ``bucket_pair`` gives its pair. Each cell (pair, request point j) lies
    in the bucket of its phase-one row. Each round, every open bucket picks
    its smallest (distance, j) among its cells at a j >= its pair's cursor,
    or is skipped if it has none. Along each pair, the buckets up to, but not
    including, the first pick below an earlier pick of the round are
    accepted, and the cursor moves to the last accepted j. By induction, each
    accepted bucket saw the cursor ``_walk`` sees: its pick is not below the
    previous accepted pick, and every cell the round's cursor passed over
    lies below that pick too. Each pair's first open bucket is accepted, so
    every round makes progress. Returns the accepted buckets, ascending, and
    their picks' distances and j.
    """
    n, span = len(bucket_pair), int(j.max()) + 1
    cursor = np.zeros(bucket_pair[-1] + 1, dtype=j.dtype)
    accepted, low, first = np.zeros(n, bool), np.empty(n), np.empty(n, dtype=j.dtype)
    while len(j):  # the cells of the open buckets at j >= the cursor
        low_r, first_r = np.full(n, np.inf), np.full(n, span)
        np.minimum.at(low_r, cell_bucket, dists)
        tie = dists == low_r[cell_bucket]
        np.minimum.at(first_r, cell_bucket[tie], j[tie])
        live = np.flatnonzero(first_r < span)
        # pair ids ascend, so one running max over pair * span + j restarts at each pair
        pair = bucket_pair[live]
        key = pair * span + first_r[live]
        stepped = key < np.maximum.accumulate(np.concatenate(([-1], key[:-1])))
        g = np.arange(len(live))
        pair_start = np.maximum.accumulate(np.where(np.diff(pair, prepend=-1) != 0, g, 0))
        ok = live[np.maximum.accumulate(np.where(stepped, g, -1)) < pair_start]
        accepted[ok], low[ok], first[ok] = True, low_r[ok], first_r[ok]
        last = ok[np.diff(bucket_pair[ok], append=-1) != 0]  # each pair's last acceptance
        cursor[bucket_pair[last]] = first_r[last]
        # a bucket left without a cell at j >= the cursor is skipped: the cursor only grows
        keep = ~accepted[cell_bucket] & (j >= cursor[bucket_pair[cell_bucket]])
        cell_bucket, j, dists = cell_bucket[keep], j[keep], dists[keep]
    done = np.flatnonzero(accepted)
    return done, low[done], first[done]


class SegmentColumns(NamedTuple):
    """The segments of a block of pairs as flat arrays: ``similarity_metric``'s
    columnar input. Pairs follow each other, and a pair's segments ascend in
    ``a_index``, as in its segment list.
    """

    vehicle: np.ndarray  # per pair: its vehicle's row of the table
    count: np.ndarray  # per pair: its number of segments, at least 1
    distance_m: np.ndarray  # per segment, as in DlcssSegment
    a_index: np.ndarray
    r_index: np.ndarray


class VehicleLegs(NamedTuple):
    """A table's vehicles for ``similarity_metric``'s columnar input: every
    vehicle's ``leg_lengths_m``, concatenated, with the position of its first
    leg and its ``geo.route_length``."""

    legs: np.ndarray
    first: np.ndarray
    length_m: np.ndarray

    @classmethod
    def of(cls, vehicles: Sequence[Route]) -> VehicleLegs:
        counts = [len(a.leg_lengths_m) for a in vehicles]
        legs = itertools.chain.from_iterable(a.leg_lengths_m for a in vehicles)
        return cls(
            np.fromiter(legs, float, sum(counts)),
            np.cumsum([0, *counts[:-1]]),
            np.array([geo.route_length(a) for a in vehicles], float),
        )


def _block_segments(rows_u, dists_u, vehicle, local, point_of, col_start, n_cols, n_rows):
    """``SegmentColumns`` of one block: pair k is vehicle ``vehicle[k]``, row
    ``local[k]`` of the phase-one tables ``rows_u`` and ``dists_u`` (by distinct
    point), against the ``n_cols[k]`` request columns from ``col_start[k]``
    (distinct points ``point_of``), with ``n_rows[k]`` vehicle points.
    """
    pair_of = np.repeat(np.arange(len(n_cols)), n_cols)
    j = np.arange(len(pair_of)) - (np.cumsum(n_cols) - n_cols)[pair_of]
    cell = (local[pair_of], point_of[np.repeat(col_start, n_cols) + j])
    row0, bucket_pair = np.cumsum(n_rows) - n_rows, np.repeat(np.arange(len(n_rows)), n_rows)
    picked, d, j_picked = _walk_pairs(row0[pair_of] + rows_u[cell], bucket_pair, j, dists_u[cell])
    pair = bucket_pair[picked]
    count = np.bincount(pair, minlength=len(n_cols))
    return SegmentColumns(vehicle, count, d, picked - row0[pair], j_picked)


def _table_segments(vehicles: Sequence[Route], requests: Sequence[Route], mask: np.ndarray):
    """``SegmentColumns`` of the pairs where ``mask``, in row-major order, block by block.

    Phase one runs once per vehicle over the distinct request points of its
    pairs. That is exact: a column's result reads only that column of
    ``point_array``, which every route builder (``Route``, the pool reader,
    ``GridGraph.route``) derives from its (lat, lon) by ``geo._point_table``,
    the libm calls of ``geo._point_trig``. Phase two (``_walk_pairs``)
    runs per block of pairs with at most BLOCK_COLUMNS request columns and
    as many vehicle rows (or one pair), which bounds the memory a large
    table takes.
    """
    pi, pj = np.nonzero(mask)
    lens, vlens = (np.array([r.point_array.shape[1] for r in x]) for x in (requests, vehicles))
    q = np.concatenate([r.point_array for r in requests], axis=1)
    key = np.ascontiguousarray(q[4:].T).view(np.dtype((np.void, 16))).ravel()
    _, first, point_of = np.unique(key, return_index=True, return_inverse=True)
    q, request_of, col0 = q[:, first], np.repeat(np.arange(len(lens)), lens), np.cumsum(lens) - lens
    qu, n_points = _unit_vectors(q), len(first)
    size_to = np.cumsum(np.maximum(lens[pj], vlens[pi]))
    b0, kept = 0, None  # kept: the previous block's last vehicle and its phase-one rows
    while b0 < len(pi):
        limit = size_to[b0] - max(lens[pj[b0]], vlens[pi[b0]]) + BLOCK_COLUMNS
        b1 = max(b0 + 1, int(np.searchsorted(size_to, limit, side="right")))
        bi, bj = pi[b0:b1], pj[b0:b1]
        vs, local = np.unique(bi, return_inverse=True)
        rows_u, dists_u = np.empty((len(vs), n_points), np.intp), np.empty((len(vs), n_points))
        for k, v in enumerate(vs.tolist()):
            if kept is not None and kept[0] == v:
                rows_u[k], dists_u[k] = kept[1:]
                continue
            p = vehicles[v].point_array
            pts = np.flatnonzero(np.bincount(point_of[mask[v][request_of]], minlength=n_points))
            if len(pts) == n_points:  # every distinct point: no gather
                rows_u[k], dists_u[k] = _phase_one(p, _unit_vectors(p), q, qu)
            else:
                rows_u[k, pts], dists_u[k, pts] = _phase_one(
                    p, _unit_vectors(p), q[:, pts], qu[:, pts]
                )
        kept = vs[-1], rows_u[-1], dists_u[-1]
        yield _block_segments(rows_u, dists_u, bi, local, point_of, col0[bj], lens[bj], vlens[bi])
        b0 = b1


def _left_sums(values: np.ndarray, start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``geo.left_sum(values[start[k] : start[k] + count[k]])`` for every k.

    In rounds over position: with the runs by descending count, round i adds
    the i-th value of every run longer than i, so each run adds its values
    left to right from 0.0. (``np.add.reduceat`` and prefix-sum differences
    add in other orders.)
    """
    order = np.argsort(-count, kind="stable")
    start, count = start[order], count[order]
    total = np.zeros(len(order))
    longest = int(count[0]) if len(count) else 0
    for i, n in enumerate(np.searchsorted(-count, -np.arange(longest), "left").tolist()):
        total[:n] += values[start[:n] + i]
    out = np.empty_like(total)
    out[order] = total
    return out


def similarity_metric(
    segments: Sequence[tuple[float, int, int]] | SegmentColumns, a: Route | VehicleLegs
) -> float | np.ndarray:
    """Score ``DlcssSegment``s or plain triples: (full length / matched span length) * segment sum.

    The matched span is the stretch of A between the first and last matched
    vehicle points. A longer overlap shrinks the penalty factor towards 1;
    large point-to-point distances grow the sum. Returns NO_OVERLAP when the
    span has zero length and the ratio is undefined.

    Two input forms, one arithmetic: a pair's segment list with its vehicle
    ``a`` (a ``Route``) gives a float; a block's ``SegmentColumns`` with ``a``
    the table's ``VehicleLegs`` gives a float64 array, one sm per pair. Both
    add their sums left to right from 0.0 (``geo.left_sum``).
    """
    if isinstance(segments, SegmentColumns):
        return _column_metric(segments, a)
    if not segments:
        raise DomainError("cannot score an empty segment list")
    l_sub_a = geo.arc_length_between(a, segments[0][1], segments[-1][1])
    sum_m = geo.left_sum([s[0] for s in segments])
    return NO_OVERLAP if l_sub_a == 0.0 else (geo.route_length(a) / l_sub_a) * sum_m


def _column_metric(c: SegmentColumns, vehicles: VehicleLegs) -> np.ndarray:
    """``similarity_metric``'s columnar form."""
    if np.any(c.count < 1):
        raise DomainError("cannot score an empty segment list")
    end = np.cumsum(c.count)
    start = end - c.count
    first, last = c.a_index[start], c.a_index[end - 1]
    # one set of rounds for both sums: the segment distances follow the legs
    l_sub_a, sum_m = np.split(_left_sums(
        np.concatenate((vehicles.legs, c.distance_m)),
        np.concatenate((vehicles.first[c.vehicle] + first, len(vehicles.legs) + start)),
        np.concatenate((last - first, c.count)),
    ), 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        sm = (vehicles.length_m[c.vehicle] / l_sub_a) * sum_m
    sm[l_sub_a == 0.0] = NO_OVERLAP
    return sm


def compute_dlcss(a: Route, r: Route) -> DlcssResult:
    """Run both phases and the score for a (vehicle, request) route pair."""
    segments = tuple(map(DlcssSegment._make, _segments(a, [r])[0]))
    return DlcssResult(
        segments=segments,
        sum_segments_m=geo.left_sum(s.distance_m for s in segments),
        l_sub_a_m=geo.arc_length_between(a, segments[0].a_index, segments[-1].a_index),
        l_a_m=geo.route_length(a),
        sm=similarity_metric(segments, a),
    )


def score_table(
    vehicles: Sequence[Route], requests: Sequence[Route], mask: np.ndarray | None = None
) -> np.ndarray:
    """sm of ``vehicles[i]`` against ``requests[j]`` at [i, j] where ``mask`` (default:
    everywhere), NaN elsewhere; each equal to ``compute_dlcss(vehicles[i], requests[j]).sm``.

    Calls with at least BATCH_MIN_PAIRS pairs run phase two for all pairs at
    once (``_table_segments``); smaller ones walk each request (``_segments``).
    """
    shape = (len(vehicles), len(requests))
    mask = np.ones(shape, bool) if mask is None else np.asarray(mask, bool)
    if mask.shape != shape:
        raise DomainError(f"mask shape {mask.shape} differs from the table's {shape}")
    pi, pj = np.nonzero(mask)
    table = np.full(shape, np.nan)
    if len(pi) >= BATCH_MIN_PAIRS:
        legs = VehicleLegs.of(vehicles)
        blocks = _table_segments(vehicles, requests, mask)
        table[pi, pj] = np.concatenate([similarity_metric(c, legs) for c in blocks])
    else:
        rows = itertools.groupby(zip(pi.tolist(), pj.tolist()), key=operator.itemgetter(0))
        sms = (
            similarity_metric(s, vehicles[i])
            for i, row in rows
            for s in _segments(vehicles[i], [requests[j] for _, j in row])
        )
        table[pi, pj] = np.fromiter(sms, float, len(pi))
    return table


def score_requests(a: Route, requests: Sequence[Route]) -> list[float]:
    """sm of vehicle ``a`` against each request, equal to ``compute_dlcss(a, r).sm``.

    ``score_table``'s one-vehicle row; below BATCH_MIN_PAIRS requests, as in a
    meeting search, it walks each request without building a table.
    """
    if len(requests) >= BATCH_MIN_PAIRS:
        return score_table([a], requests)[0].tolist()
    return [similarity_metric(s, a) for s in _segments(a, requests)] if requests else []


def metric_sweep(
    overlap_fractions: Sequence[float], segment_sums: Sequence[float]
) -> np.ndarray:
    """Score grid over overlap fractions (rows) and segment sums (columns).

    Evaluates sum / fraction for every combination; useful for plotting how
    the score behaves across its two degrees of freedom.
    """
    fracs = np.asarray(overlap_fractions, dtype=np.float64)
    sums = np.asarray(segment_sums, dtype=np.float64)
    if fracs.ndim != 1 or sums.ndim != 1:
        raise DomainError("overlap_fractions and segment_sums must be 1-dimensional")
    # written so that NaN fails each check
    if np.any(~((fracs > 0.0) & (fracs <= 1.0))):
        raise DomainError("overlap fractions must lie in (0, 1]")
    if np.any(~(sums >= 0.0)):
        raise DomainError("segment sums must be non-negative")
    return sums[None, :] / fracs[:, None]
