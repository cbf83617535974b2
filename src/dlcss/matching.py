"""Threshold filtering of route pools: which pairs merit a real routing check.

Scoring every ordered (vehicle, request) pair is cheap: one kernel call
scores the whole (vehicles x requests) table in the calling process. The
expensive routing-based verification only needs to run for pairs that
survive the threshold. The default threshold is deliberately cautious so
that genuine matches are not filtered away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import score_requests, score_table
from .errors import DomainError, check_integer
from .geo import Route

DEFAULT_THRESHOLD_M = 20_000.0


@dataclass(frozen=True)
class MatchDecision:
    """Outcome of scoring one ordered (vehicle, request) pair against a threshold."""

    a_id: str
    r_id: str
    sm: float  # NO_OVERLAP (inf) when the pair has no usable overlap
    threshold: float
    accepted: bool


def score_pair(a: Route, r: Route) -> float:
    """Similarity score with ``a`` as the vehicle and ``r`` as the request."""
    return score_requests(a, [r])[0]


def _check_threshold(threshold: float, name: str = "threshold") -> None:
    """Reject a negative, infinite or NaN threshold.

    Zero is legal: it accepts only exact-zero scores, which is what a
    duplicate-heavy pool calibrates to. Infinity is not: JSON has no such number.
    """
    # a bool, numpy's too, is no number here; NaN fails the range
    if isinstance(threshold, (bool, np.bool_)) or not 0.0 <= threshold < math.inf:
        raise DomainError(f"{name} must be non-negative and finite, got {threshold}")


def filter_pool(
    vehicle_routes: Sequence[Route],
    request_routes: Sequence[Route],
    threshold: float = DEFAULT_THRESHOLD_M,
) -> list[MatchDecision]:
    """Score every ordered (vehicle, request) pair against the threshold.

    Output is sorted by (a_id, r_id). A zero threshold accepts only
    exact-zero scores.
    """
    _check_threshold(threshold)
    vehicles = sorted(vehicle_routes, key=lambda x: x.id)
    requests = sorted(request_routes, key=lambda x: x.id)
    table = score_table(vehicles, requests).tolist()
    return [
        MatchDecision(a.id, r.id, sm, threshold, math.isfinite(sm) and sm <= threshold)
        for a, row in zip(vehicles, table)
        for r, sm in zip(requests, row)
    ]


def rank_candidates(
    request: Route,
    vehicle_routes: Sequence[Route],
    k: int,
    threshold: float = DEFAULT_THRESHOLD_M,
) -> list[MatchDecision]:
    """The k best vehicles for one request, ascending by score.

    Pairs without any usable overlap never rank; fewer than k decisions come
    back when the pool is small or mostly disjoint. Ties break on vehicle id.
    """
    _check_threshold(threshold)
    k = check_integer(k, "k", 1)
    column = score_table(vehicle_routes, [request])[:, 0].tolist()
    finite = [
        MatchDecision(a.id, request.id, sm, threshold, sm <= threshold)
        for a, sm in zip(vehicle_routes, column)
        if math.isfinite(sm)
    ]
    finite.sort(key=lambda d: (d.sm, d.a_id))
    return finite[:k]
