"""Meeting-point search for pairs whose direct similarity is above threshold.

When a request scores too high against a vehicle route, a nearby pickup
point can still make the pair viable: the request is rerouted to start at
the meeting point and scored again. Route construction is delegated to an
injected provider so the grid router, a straight-line fallback, or a real
routing engine can all serve.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import core, matching
from .errors import DomainError, ParseError
from .geo import Coordinate, Route

logger = logging.getLogger(__name__)

RouteProvider = Callable[[Coordinate, Coordinate], Route]


@dataclass(frozen=True)
class MeetingPoint:
    id: str
    location: Coordinate
    label: str | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise DomainError("meeting point id must be non-empty")


@dataclass(frozen=True)
class MeetingMatch:
    """Best candidate found: the request rerouted through a meeting point."""

    meeting_point_id: str
    rerouted_request: Route
    sm: float


def evaluate_meeting_points(
    a: Route,
    r: Route,
    candidates: list[MeetingPoint],
    route_provider: RouteProvider,
    threshold_m: float = matching.DEFAULT_THRESHOLD_M,
) -> MeetingMatch | None:
    """Score the request rerouted through each candidate pickup point.

    Each candidate's trial route runs from the meeting point to the
    request's original destination. Returns the candidate with the lowest
    similarity score if that score is within the threshold, otherwise None.
    Ties break on the smallest candidate id. A provider DomainError (no route,
    off-grid endpoint) skips that candidate, logged; other exceptions propagate.
    """
    matching._check_threshold(threshold_m, "threshold_m")
    destination = r.point(-1)
    trials: list[tuple[str, Route]] = []
    for m in candidates:
        try:
            trials.append((m.id, route_provider(m.location, destination)))
        except DomainError as exc:
            logger.warning("meeting point %s skipped: %s", m.id, exc)
    scores = core.score_requests(a, [route for _, route in trials])
    scored = [(sm, mid, route) for (mid, route), sm in zip(trials, scores)]
    best = min(scored, key=lambda t: t[:2], default=None)
    if best is None or not (math.isfinite(best[0]) and best[0] <= threshold_m):
        return None
    sm, mid, route = best
    return MeetingMatch(meeting_point_id=mid, rerouted_request=route, sm=sm)


def load_meeting_points(source: str | Path) -> list[MeetingPoint]:
    """Read meeting points from a CSV with header ``id,lat,lon,label``.

    ``label`` may be empty. Raises ParseError naming the offending row on
    duplicate ids, malformed rows, or invalid coordinates.
    """
    path = Path(source)
    try:
        text = path.read_bytes().decode("utf-8-sig")  # spreadsheets write a BOM
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    reader = csv.DictReader(io.StringIO(text, newline=""))
    fields = reader.fieldnames
    if fields is None or not {"id", "lat", "lon"}.issubset(fields):
        raise ParseError(f"{path}: header must contain id,lat,lon[,label]")
    points: list[MeetingPoint] = []
    seen: set[str] = set()
    for row_no, row in enumerate(reader, start=2):
        pid = (row.get("id") or "").strip()
        if not pid:
            raise ParseError(f"{path} row {row_no}: missing id")
        if pid in seen:
            raise ParseError(f"{path} row {row_no}: duplicate id {pid!r}")
        try:
            location = Coordinate(float(row["lat"]), float(row["lon"]))
        except (DomainError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path} row {row_no}: {exc}") from exc
        label = (row.get("label") or "").strip() or None
        points.append(MeetingPoint(id=pid, location=location, label=label))
        seen.add(pid)
    return points
