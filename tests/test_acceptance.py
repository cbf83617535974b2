"""End-to-end acceptance checks, one test per shipped guarantee.

Each test here states an externally observable promise: exact zero scores on
identical routes, bit-for-bit agreement with the straightforward reference
implementation, ordering invariants of the matched segments, closed-form
behaviour of the metric sweep, calibrated evaluation on seeded pools,
meeting-point recovery of a rejected request, and runtime budgets. Run with
``pytest -v tests/test_acceptance.py`` to get one pass/fail line per check.
"""

import math
import random
import statistics
import time

import numpy as np
import pytest

from dlcss import (
    GridGraph,
    compute_dlcss,
    evaluate_meeting_points,
    filter_pool,
    generate_pool,
    metric_sweep,
    score_pair,
    shortest_route,
)
from dlcss.evaluation import calibrate_threshold, run_eval

import scenarios
from reference import reference_segments, reference_sm
from test_geo import random_route


def test_identical_routes_score_exactly_zero(default_grid):
    """Every route matched against itself: sm == 0.0, all segments 0.0."""
    pool = generate_pool(default_grid, 50, seed=0)
    t0 = time.perf_counter()
    results = [compute_dlcss(r, r) for r in pool.routes]
    elapsed = time.perf_counter() - t0
    for route, res in zip(pool.routes, results):
        assert res.sm == 0.0, route.id
        assert len(res.segments) == len(route.points)
        assert all(s.distance_m == 0.0 for s in res.segments), route.id
    assert elapsed < 1.0, f"identity scoring took {elapsed:.2f}s"


def test_segments_match_reference_bit_for_bit():
    """500 random pairs agree with the dense reference implementation.

    Indices must be equal and distances identical to the last bit; both
    implementations are required to perform the same arithmetic in the
    same order.
    """
    rng = random.Random(1234)
    t0 = time.perf_counter()
    for trial in range(500):
        a = random_route(rng, rng.randint(2, 10), f"a{trial}")
        r = random_route(rng, rng.randint(2, 10), f"r{trial}")
        res = compute_dlcss(a, r)
        expected = reference_segments(a, r)
        got = [(s.distance_m, s.a_index, s.r_index) for s in res.segments]
        assert got == expected, f"trial {trial}: segment mismatch"
        assert res.sm == reference_sm(expected, a), f"trial {trial}: sm mismatch"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"reference comparison took {elapsed:.2f}s"


def test_matched_segments_respect_temporal_order():
    """a_index strictly increases and r_index never decreases, everywhere."""
    rng = random.Random(777)
    pairs = [
        (random_route(rng, rng.randint(2, 60), f"a{k}"), random_route(rng, rng.randint(2, 60), f"r{k}"))
        for k in range(250)
    ]
    veh = scenarios.vehicle_route()
    pairs += [(veh, req) for req in scenarios.all_scenarios().values()]
    violations = 0
    for a, r in pairs:
        segs = compute_dlcss(a, r).segments
        for prev, cur in zip(segs, segs[1:]):
            if not cur.a_index > prev.a_index:
                violations += 1
            if not cur.r_index >= prev.r_index:
                violations += 1
    assert violations == 0


def test_sweep_reproduces_sum_over_fraction():
    """A 20x20 sweep equals segment_sum / overlap_fraction to 1e-9 relative."""
    fracs = np.linspace(0.05, 1.0, 20)
    sums = np.linspace(0.0, 9500.0, 20)
    grid = metric_sweep(fracs, sums)
    assert grid.shape == (20, 20)
    for i, f in enumerate(fracs):
        for j, s in enumerate(sums):
            assert math.isclose(grid[i, j], s / f, rel_tol=1e-9, abs_tol=0.0)
    # larger overlap fraction must never raise the score, larger sum never lower it
    positive = sums > 0.0
    assert np.all(np.diff(grid[:, positive], axis=0) < 0.0)
    assert np.all(np.diff(grid, axis=1) > 0.0)


@pytest.fixture(scope="module")
def calibrated_reports():
    """Calibrate and evaluate ten seeded 100-route pools on the default grid."""
    t0 = time.perf_counter()
    g = GridGraph.build()
    reports = {}
    for seed in range(10):
        pool = generate_pool(g, 100, seed)
        reports[seed] = run_eval(pool, g, calibrate_threshold(pool, g))
    return reports, time.perf_counter() - t0


def test_calibrated_threshold_rejects_no_compatible_pair(calibrated_reports):
    """Calibration is meant to leave zero false negatives on its own pool.

    This cannot hold on these pools: the detour oracle labels some pairs
    compatible even though the two routes never run close enough to share a
    single matched stretch, and such pairs score NoOverlap, which no finite
    threshold accepts. The counts below measure exactly that population.
    """
    reports, elapsed = calibrated_reports
    assert elapsed < 120.0, f"ten-pool evaluation took {elapsed:.1f}s"
    fn_by_seed = {seed: rep.false_negatives for seed, rep in sorted(reports.items())}
    assert all(v == 0 for v in fn_by_seed.values()), (
        "compatible pairs rejected at the calibrated threshold, by seed: "
        f"{fn_by_seed}"
    )


def test_median_rejection_rate_at_least_half(calibrated_reports):
    reports, _ = calibrated_reports
    rates = [rep.rejection_rate for rep in reports.values()]
    assert statistics.median(rates) >= 0.5


def test_meeting_point_recovers_rejected_request(intact_grid):
    """A request too dissimilar for a direct match is served via a pickup point.

    All scores are pinned to values computed independently by the dense
    reference implementation.
    """
    g = intact_grid
    a = scenarios.meeting_vehicle(g)
    r = scenarios.meeting_request(g)
    candidates = scenarios.meeting_candidates(g)

    direct = score_pair(a, r)
    assert direct == scenarios.MEETING_DIRECT_SM
    assert direct > scenarios.MEETING_THRESHOLD_M

    sms = {
        m.id: score_pair(a, shortest_route(g, m.location, r.points[-1]))
        for m in candidates
    }
    assert sms == scenarios.MEETING_CANDIDATE_SM
    within = sorted(mid for mid, sm in sms.items() if sm <= scenarios.MEETING_THRESHOLD_M)
    assert within == ["mp-corridor"]

    match = evaluate_meeting_points(
        a, r, candidates,
        route_provider=lambda o, d: shortest_route(g, o, d),
        threshold_m=scenarios.MEETING_THRESHOLD_M,
    )
    assert match is not None
    assert match.meeting_point_id == "mp-corridor"
    assert match.sm == scenarios.MEETING_CANDIDATE_SM["mp-corridor"]


def test_pickup_dropoff_family_ordering():
    """Across the nine start/destination placements, the exact copy wins.

    The same-corridor request [2,2] must stay finite and score far below a
    geometrically disjoint control request of identical shape.
    """
    veh = scenarios.vehicle_route()
    family = {key: score_pair(veh, req) for key, req in scenarios.all_scenarios().items()}
    assert family["[1,1]"] == 0.0
    for key, sm in family.items():
        if key != "[1,1]":
            assert sm > 0.0, key
    assert math.isfinite(family["[2,2]"])
    control = score_pair(veh, scenarios.disjoint_control())
    assert family["[2,2]"] < control


def test_runtime_budgets():
    """Single large pair under 1s; a 180x180 pool filter under 30s, one core."""
    rng = random.Random(99)
    a = random_route(rng, 1000, "perf-a")
    r = random_route(rng, 1000, "perf-r")
    t0 = time.perf_counter()
    compute_dlcss(a, r)
    single = time.perf_counter() - t0
    assert single < 1.0, f"1000x1000 pair took {single:.3f}s"

    routes = [random_route(rng, rng.randint(45, 55), f"p{k:03d}") for k in range(180)]
    t0 = time.perf_counter()
    decisions = filter_pool(routes, routes)
    bulk = time.perf_counter() - t0
    assert len(decisions) == 180 * 180
    assert bulk < 30.0, f"pool filtering took {bulk:.1f}s"
