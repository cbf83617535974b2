"""Threshold filtering of route pools: which pairs merit a real routing check.

Scoring every ordered (vehicle, request) pair is cheap: one kernel call per
vehicle scores all its requests in the calling process. The expensive
routing-based verification only needs to run for pairs that survive the
threshold. The default threshold is deliberately cautious so that genuine
matches are not filtered away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import score_requests
from .errors import DomainError
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
    if not 0.0 <= threshold < math.inf:  # written so that NaN fails it
        raise DomainError(f"{name} must be non-negative and finite, got {threshold}")


def _decide(a: Route, requests: Sequence[Route], threshold: float) -> list[MatchDecision]:
    """Decisions for vehicle ``a`` against each request, in request order."""
    return [
        MatchDecision(
            a_id=a.id,
            r_id=r.id,
            sm=sm,
            threshold=threshold,
            accepted=math.isfinite(sm) and sm <= threshold,
        )
        for r, sm in zip(requests, score_requests(a, requests))
    ]


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
    return [d for a in vehicles for d in _decide(a, requests, threshold)]


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
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    decisions = [d for a in vehicle_routes for d in _decide(a, [request], threshold)]
    finite = [d for d in decisions if math.isfinite(d.sm)]
    finite.sort(key=lambda d: (d.sm, d.a_id))
    return finite[:k]
