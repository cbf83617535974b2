"""Meeting-point search: candidate scoring, tie-breaks, CSV loading."""

import math

import pytest

from dlcss import (
    Coordinate,
    DomainError,
    MeetingPoint,
    NoRouteError,
    ParseError,
    evaluate_meeting_points,
    load_meeting_points,
    score_pair,
    shortest_route,
)

import scenarios


@pytest.fixture()
def grid_provider(intact_grid):
    def provider(origin, destination):
        return shortest_route(intact_grid, origin, destination)

    return provider


def test_fixture_picks_the_corridor_candidate(intact_grid, grid_provider):
    a = scenarios.meeting_vehicle(intact_grid)
    r = scenarios.meeting_request(intact_grid)
    match = evaluate_meeting_points(
        a, r, scenarios.meeting_candidates(intact_grid), grid_provider,
        threshold_m=scenarios.MEETING_THRESHOLD_M,
    )
    assert match is not None
    assert match.meeting_point_id == "mp-corridor"
    assert match.sm == scenarios.MEETING_CANDIDATE_SM["mp-corridor"]
    assert match.rerouted_request.points[-1] == r.points[-1]


def test_no_candidate_within_threshold_returns_none(intact_grid, grid_provider):
    a = scenarios.meeting_vehicle(intact_grid)
    r = scenarios.meeting_request(intact_grid)
    match = evaluate_meeting_points(
        a, r, scenarios.meeting_candidates(intact_grid), grid_provider,
        threshold_m=1000.0,
    )
    assert match is None


def test_candidate_at_request_start_reproduces_direct_score(intact_grid, grid_provider):
    a = scenarios.meeting_vehicle(intact_grid)
    r = scenarios.meeting_request(intact_grid)
    at_start = [MeetingPoint("mp-origin", r.points[0])]
    match = evaluate_meeting_points(
        a, r, at_start, grid_provider, threshold_m=scenarios.MEETING_DIRECT_SM + 1.0
    )
    assert match is not None
    assert match.sm == score_pair(a, r)
    assert match.rerouted_request.points == r.points


def test_empty_candidate_list(intact_grid, grid_provider):
    a = scenarios.meeting_vehicle(intact_grid)
    r = scenarios.meeting_request(intact_grid)
    assert evaluate_meeting_points(a, r, [], grid_provider) is None


def test_tie_breaks_on_smallest_id(intact_grid, grid_provider):
    a = scenarios.meeting_vehicle(intact_grid)
    r = scenarios.meeting_request(intact_grid)
    spot = intact_grid.node(5 * 12 + 3)
    twins = [MeetingPoint("mp-b", spot), MeetingPoint("mp-a", spot)]
    match = evaluate_meeting_points(a, r, twins, grid_provider, threshold_m=5000.0)
    assert match.meeting_point_id == "mp-a"


def test_provider_failure_skips_candidate(intact_grid, grid_provider, caplog):
    a = scenarios.meeting_vehicle(intact_grid)
    r = scenarios.meeting_request(intact_grid)
    # same snap node as the destination: the grid router refuses this trip
    broken = MeetingPoint("mp-broken", r.points[-1])
    good = MeetingPoint("mp-good", intact_grid.node(5 * 12 + 3))
    with caplog.at_level("WARNING"):
        match = evaluate_meeting_points(
            a, r, [broken, good], grid_provider, threshold_m=5000.0
        )
    assert match.meeting_point_id == "mp-good"
    assert any("mp-broken" in rec.getMessage() for rec in caplog.records)


def test_all_providers_failing_returns_none(intact_grid):
    a = scenarios.meeting_vehicle(intact_grid)
    r = scenarios.meeting_request(intact_grid)

    def always_fails(origin, destination):
        raise NoRouteError("nope")

    cands = [MeetingPoint("mp-a", intact_grid.node(3))]
    assert evaluate_meeting_points(a, r, cands, always_fails) is None


def test_buggy_provider_propagates(intact_grid):
    """Only a DomainError means "no route": a provider bug is not a skipped candidate."""
    a = scenarios.meeting_vehicle(intact_grid)
    r = scenarios.meeting_request(intact_grid)

    def wrong_arity(origin):
        return shortest_route(intact_grid, origin, r.points[-1])

    with pytest.raises(TypeError):
        evaluate_meeting_points(a, r, scenarios.meeting_candidates(intact_grid), wrong_arity)


def test_threshold_validation(intact_grid, grid_provider):
    # zero is legal, as for every threshold: it accepts only an exact-zero score
    a = scenarios.meeting_vehicle(intact_grid)
    r = scenarios.meeting_request(intact_grid)
    cands = scenarios.meeting_candidates(intact_grid)
    assert evaluate_meeting_points(a, r, cands, grid_provider, threshold_m=0.0) is None
    at_start = [MeetingPoint("mp-start", a.points[0])]
    match = evaluate_meeting_points(a, a, at_start, grid_provider, threshold_m=0.0)
    assert match is not None and match.sm == 0.0
    with pytest.raises(DomainError):
        evaluate_meeting_points(a, r, [], grid_provider, threshold_m=-1.0)


def test_meeting_point_requires_id():
    with pytest.raises(DomainError):
        MeetingPoint("", Coordinate(50.75, 6.0))


def test_load_meeting_points(tmp_path):
    csv_path = tmp_path / "points.csv"
    csv_path.write_text(
        "id,lat,lon,label\n"
        "mp-1,50.75,6.08,Station North\n"
        "mp-2,50.76,6.09,\n"
    )
    points = load_meeting_points(csv_path)
    assert [p.id for p in points] == ["mp-1", "mp-2"]
    assert points[0].label == "Station North"
    assert points[1].label is None
    assert points[0].location == Coordinate(50.75, 6.08)


def test_load_meeting_points_without_label_column(tmp_path):
    csv_path = tmp_path / "points.csv"
    csv_path.write_text("id,lat,lon\nmp-1,50.75,6.08\n")
    assert load_meeting_points(csv_path)[0].label is None


def test_load_meeting_points_after_a_byte_order_mark(tmp_path):
    """Spreadsheet exports start the file with a UTF-8 BOM."""
    csv_path = tmp_path / "points.csv"
    csv_path.write_text("id,lat,lon,label\nmp-1,50.75,6.08,North\n", encoding="utf-8-sig")
    assert csv_path.read_bytes().startswith(b"\xef\xbb\xbf")
    points = load_meeting_points(csv_path)
    assert [(p.id, p.location, p.label) for p in points] == [
        ("mp-1", Coordinate(50.75, 6.08), "North")
    ]


def test_load_rejects_bad_header(tmp_path):
    csv_path = tmp_path / "points.csv"
    csv_path.write_text("name,x,y\nmp-1,50.75,6.08\n")
    with pytest.raises(ParseError):
        load_meeting_points(csv_path)


def test_load_names_offending_row(tmp_path):
    csv_path = tmp_path / "points.csv"
    csv_path.write_text("id,lat,lon\nmp-1,50.75,6.08\nmp-2,not-a-number,6.09\n")
    with pytest.raises(ParseError, match="row 3"):
        load_meeting_points(csv_path)

    csv_path.write_text("id,lat,lon\nmp-1,50.75,6.08\nmp-1,50.76,6.09\n")
    with pytest.raises(ParseError, match="row 3"):
        load_meeting_points(csv_path)

    csv_path.write_text("id,lat,lon\nmp-1,95.0,6.08\n")
    with pytest.raises(ParseError, match="row 2"):
        load_meeting_points(csv_path)
