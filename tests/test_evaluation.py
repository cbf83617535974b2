"""Confusion-matrix evaluation against the routing oracle."""

import json
import math
import random

import numpy as np
import pytest

from dlcss import (
    Coordinate,
    DomainError,
    ParseError,
    Route,
    RoutePool,
    calibrate_threshold,
    cross_validated_eval,
    emit_report,
    evaluate_meeting_points,
    filter_pool,
    generate_pool,
    rank_candidates,
    read_report,
    run_eval,
    shortest_route,
)
from dlcss.evaluation import report_to_json_dict


@pytest.fixture(scope="module")
def mini_pool(intact_grid):
    return generate_pool(intact_grid, n=8, seed=3)


def duplicate_pool(g):
    base = shortest_route(g, g.node(0), g.node(30))
    return RoutePool(routes=[Route("d0", base.points), Route("d1", base.points)])


def parallel_corridor_pool():
    def corridor(rid, lat):
        return Route(rid, tuple(Coordinate(lat, 6.08 + 0.003 * k) for k in range(5)))

    return RoutePool(routes=[corridor(f"c{k}", 50.75 + 0.001 * k) for k in range(3)])


def test_two_identical_routes(intact_grid):
    report = run_eval(duplicate_pool(intact_grid), intact_grid, threshold_m=20_000.0)
    assert report.n_pairs == 2
    assert report.true_positives == 2
    assert report.false_positives == 0
    assert report.true_negatives == 0
    assert report.false_negatives == 0
    assert report.rejection_rate == 0.0
    assert report.tp_rate_among_accepted == 1.0


def test_counts_sum_and_rates(intact_grid, mini_pool):
    threshold = calibrate_threshold(mini_pool, intact_grid)
    report = run_eval(mini_pool, intact_grid, threshold)
    n = report.n_pairs
    assert n == 8 * 7
    counts = (
        report.true_positives,
        report.false_positives,
        report.true_negatives,
        report.false_negatives,
    )
    assert sum(counts) == n
    assert report.rejection_rate == (counts[2] + counts[3]) / n
    if counts[0] + counts[1] > 0:
        assert report.tp_rate_among_accepted == counts[0] / (counts[0] + counts[1])
    else:
        assert report.tp_rate_among_accepted == 0.0
    assert len(report.pairs) == n


def test_calibration_on_duplicate_pool_is_zero(intact_grid):
    assert calibrate_threshold(duplicate_pool(intact_grid), intact_grid) == 0.0


def test_calibration_falls_back_to_default(intact_grid):
    g = intact_grid
    # two short rides in opposite corners: detours far beyond 50% both ways
    a = shortest_route(g, g.node(0), g.node(2))
    b = shortest_route(g, g.node(11 * 12 + 9), g.node(11 * 12 + 11))
    pool = RoutePool(routes=[Route("a", a.points), Route("b", b.points)])
    assert calibrate_threshold(pool, g, default_m=12345.0) == 12345.0


def test_calibration_ignores_incompatible_additions(intact_grid, mini_pool):
    base = calibrate_threshold(mini_pool, intact_grid)
    far = Route(
        "far-away",
        (Coordinate(50.7501, 6.08), Coordinate(50.7501, 6.0805)),
    )
    extended = RoutePool(routes=mini_pool.routes + [far])
    verdictless = calibrate_threshold(extended, intact_grid)
    # the tiny stub is incompatible with everything, so nothing changes
    assert verdictless == base


def test_calibration_needs_two_routes(intact_grid):
    g = intact_grid
    solo = RoutePool(routes=[shortest_route(g, g.node(0), g.node(5))])
    with pytest.raises(DomainError):
        calibrate_threshold(solo, g)


def test_zero_threshold_rejects_everything(intact_grid):
    pool = parallel_corridor_pool()
    report = run_eval(pool, intact_grid, threshold_m=0.0)
    assert report.rejection_rate == 1.0
    assert report.true_positives == 0
    assert report.false_positives == 0


def test_negative_threshold_rejected(intact_grid, mini_pool):
    with pytest.raises(DomainError):
        run_eval(mini_pool, intact_grid, threshold_m=-1.0)


@pytest.mark.parametrize("threshold", [True, False, np.True_, np.False_])
def test_bool_threshold_rejected(intact_grid, mini_pool, threshold):
    """A bool is no threshold: ``emit_report`` would write it as JSON true."""
    with pytest.raises(DomainError, match="threshold_m"):
        run_eval(mini_pool, intact_grid, threshold_m=threshold)


def test_report_invariant_under_pool_permutation(intact_grid, mini_pool):
    report = run_eval(mini_pool, intact_grid, threshold_m=5000.0)
    permuted = RoutePool(
        routes=list(reversed(mini_pool.routes)), metadata=mini_pool.metadata
    )
    other = run_eval(permuted, intact_grid, threshold_m=5000.0)
    assert other == report
    assert other.pairs == report.pairs


def test_run_eval_is_deterministic(intact_grid, mini_pool):
    r1 = run_eval(mini_pool, intact_grid, threshold_m=5000.0)
    r2 = run_eval(mini_pool, intact_grid, threshold_m=5000.0)
    assert r1 == r2
    assert r1.pairs == r2.pairs


def test_runtime_ms_is_one_record(intact_grid, mini_pool):
    """run_eval and cross-validation time the same stages: judging apart from
    scoring, and the total spans all three."""
    for report in (
        run_eval(mini_pool, intact_grid, threshold_m=5000.0),
        cross_validated_eval(mini_pool, intact_grid, folds=2, seed=1),
    ):
        ms = report.runtime_ms
        assert set(ms) == {"labeling_ms", "scoring_ms", "judging_ms", "total_ms"}
        assert min(ms.values()) >= 0.0
        parts = ms["labeling_ms"] + ms["scoring_ms"] + ms["judging_ms"]
        assert math.isclose(ms["total_ms"], parts, abs_tol=1e-6)


def test_cross_validation_bounds(intact_grid, mini_pool):
    with pytest.raises(DomainError):
        cross_validated_eval(mini_pool, intact_grid, folds=1)
    with pytest.raises(DomainError):
        cross_validated_eval(mini_pool, intact_grid, folds=5)  # 8 routes cap at 4


@pytest.mark.parametrize("folds", [2.5, 2.0, True, "2", None, np.float64(3.0)])
def test_cross_validation_rejects_folds_that_are_no_integer(intact_grid, mini_pool, folds):
    with pytest.raises(DomainError, match="folds must be an integer"):
        cross_validated_eval(mini_pool, intact_grid, folds=folds)


def test_numpy_integer_counts_are_counts(intact_grid, mini_pool):
    """numpy integers pass the integer rule: folds and k act as the ints."""
    assert cross_validated_eval(mini_pool, intact_grid, folds=np.int64(2), seed=1) == \
        cross_validated_eval(mini_pool, intact_grid, folds=2, seed=1)
    routes = mini_pool.routes
    assert rank_candidates(routes[0], routes, k=np.int64(2)) == rank_candidates(routes[0], routes, k=2)


@pytest.mark.parametrize("seed", [None, 1.5, True, "1", np.float64(1.0)])
def test_cross_validation_rejects_a_seed_that_is_no_integer(intact_grid, mini_pool, seed):
    with pytest.raises(DomainError, match="seed must be an integer"):
        cross_validated_eval(mini_pool, intact_grid, folds=2, seed=seed)


def test_cross_validation_takes_numpy_integer_and_negative_seeds(intact_grid, mini_pool):
    assert cross_validated_eval(mini_pool, intact_grid, folds=2, seed=np.int64(1)) == \
        cross_validated_eval(mini_pool, intact_grid, folds=2, seed=1)
    assert cross_validated_eval(mini_pool, intact_grid, folds=2, seed=-1).n_pairs > 0


def test_cross_validation_aggregates_held_out_folds(intact_grid, mini_pool):
    report = cross_validated_eval(mini_pool, intact_grid, folds=4, seed=1)
    # four folds of two routes: two ordered pairs each
    assert report.n_pairs == 8
    counts = (
        report.true_positives
        + report.false_positives
        + report.true_negatives
        + report.false_negatives
    )
    assert counts == 8
    again = cross_validated_eval(mini_pool, intact_grid, folds=4, seed=1)
    assert again == report


def fold_by_fold(pool, g, folds, seed):
    """Pairs and threshold of a k-fold run, one calibrate and one run_eval per fold."""
    routes = sorted(pool.routes, key=lambda r: r.id)
    order = list(range(len(routes)))
    random.Random(seed).shuffle(order)
    fold_of = {routes[idx].id: i % folds for i, idx in enumerate(order)}
    pairs, thresholds = [], []
    for f in range(folds):
        train = RoutePool(routes=[r for r in routes if fold_of[r.id] != f])
        held = RoutePool(routes=[r for r in routes if fold_of[r.id] == f])
        thresholds.append(calibrate_threshold(train, g))
        pairs.extend(run_eval(held, g, thresholds[-1]).pairs)
    return pairs, max(thresholds)


@pytest.mark.parametrize(
    "grid, n, folds, seed", [("intact_grid", 8, 4, 3), ("default_grid", 30, 5, 11)]
)
def test_cross_validation_equals_fold_by_fold_runs(request, grid, n, folds, seed):
    g = request.getfixturevalue(grid)
    pool = generate_pool(g, n=n, seed=seed)  # the intact case is mini_pool
    report = cross_validated_eval(pool, g, folds=folds, seed=1)
    pairs, threshold = fold_by_fold(pool, g, folds, seed=1)
    assert report.pairs == pairs
    assert report.threshold_m == threshold
    confusion = [
        sum(1 for o in pairs if (o.accepted, o.compatible) == key)
        for key in ((True, True), (True, False), (False, False), (False, True))
    ]
    assert confusion == [
        report.true_positives,
        report.false_positives,
        report.true_negatives,
        report.false_negatives,
    ]
    assert report.n_pairs == len(pairs)


@pytest.mark.parametrize(
    "call",
    [
        lambda g, pool, x: run_eval(pool, g, threshold_m=x),
        lambda g, pool, x: calibrate_threshold(pool, g, default_m=x),
        lambda g, pool, x: cross_validated_eval(pool, g, folds=2, default_m=x),
        lambda g, pool, x: filter_pool(pool.routes, pool.routes, threshold=x),
        lambda g, pool, x: evaluate_meeting_points(
            pool.routes[0], pool.routes[1], [], lambda o, d: None, threshold_m=x
        ),
        lambda g, pool, x: rank_candidates(pool.routes[0], pool.routes, k=3, threshold=x),
    ],
    ids=["run_eval", "calibrate_threshold", "cross_validated_eval", "filter_pool",
         "evaluate_meeting_points", "rank_candidates"],
)
def test_nan_threshold_rejected(intact_grid, mini_pool, call):
    """One threshold rule everywhere: zero is legal (it accepts only exact-zero
    scores), and a negative, NaN or infinite threshold raises."""
    call(intact_grid, mini_pool, 0.0)
    for value in (-1.0, math.nan, math.inf):  # JSON has neither nan nor inf
        with pytest.raises(DomainError):
            call(intact_grid, mini_pool, value)


def test_empty_and_one_route_pools_have_no_pairs(intact_grid, mini_pool):
    for routes in ([], mini_pool.routes[:1]):
        assert run_eval(RoutePool(routes=routes), intact_grid, threshold_m=100.0).n_pairs == 0


@pytest.mark.parametrize(
    "call",
    [
        lambda g, pool: run_eval(pool, g, threshold_m=100.0),
        lambda g, pool: calibrate_threshold(pool, g),
        lambda g, pool: cross_validated_eval(pool, g, folds=2),
    ],
    ids=["run_eval", "calibrate_threshold", "cross_validated_eval"],
)
def test_off_grid_route_has_no_label(intact_grid, mini_pool, call):
    """An unroutable pool raises, naming the route, instead of labeling it incompatible."""
    far = Route("far", (Coordinate(40.0, 6.08), Coordinate(40.0, 6.09)))
    with pytest.raises(DomainError, match="route 'far' has no grid label: latitude 40.0"):
        call(intact_grid, RoutePool(routes=[*mini_pool.routes, far]))


def test_json_report_round_trip(tmp_path, intact_grid, mini_pool):
    report = run_eval(mini_pool, intact_grid, threshold_m=3000.0)
    path = tmp_path / "report.json"
    emit_report(report, "json", path)
    loaded = read_report(path)
    assert loaded == report
    doc = json.loads(path.read_text())
    assert set(doc) == set(report_to_json_dict(report))
    assert "runtime_ms" not in doc and "pairs" not in doc


def test_csv_report_shape(tmp_path, intact_grid, mini_pool):
    report = run_eval(mini_pool, intact_grid, threshold_m=3000.0)
    path = tmp_path / "report.csv"
    emit_report(report, "csv", path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[0].split(",")[0] == "n_pairs"


def test_plot_data_row_count(tmp_path, intact_grid, mini_pool):
    report = run_eval(mini_pool, intact_grid, threshold_m=3000.0)
    path = tmp_path / "scatter.csv"
    emit_report(report, "plot-data", path)
    rows = path.read_text().strip().splitlines()
    assert len(rows) == report.n_pairs
    for row in rows[:5]:
        sm, frac = row.split(",")
        assert math.isfinite(float(frac)) or float(frac) == math.inf
        float(sm)  # parses, possibly inf


def test_unknown_report_format(tmp_path, intact_grid, mini_pool):
    report = run_eval(mini_pool, intact_grid, threshold_m=3000.0)
    with pytest.raises(DomainError):
        emit_report(report, "xml", tmp_path / "nope.xml")


def test_read_report_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ParseError):
        read_report(path)
    path.write_text(json.dumps({"n_pairs": 3}))
    with pytest.raises(ParseError):
        read_report(path)
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(ParseError):
        read_report(path)
    good = {"n_pairs": 4, "threshold_m": 10.0, "true_positives": 1, "false_positives": 1,
            "true_negatives": 1, "false_negatives": 1, "rejection_rate": 0.5,
            "tp_rate_among_accepted": 0.5}
    path.write_text(json.dumps(good))
    assert read_report(path).n_pairs == 4
    bad = [("n_pairs", "many"), ("n_pairs", True), ("n_pairs", 4.0), ("true_positives", -3),
           ("false_negatives", None), ("threshold_m", True), ("threshold_m", -1.0),
           ("threshold_m", "10"), ("rejection_rate", "x"), ("rejection_rate", 1.5),
           ("tp_rate_among_accepted", -0.1), ("tp_rate_among_accepted", False)]
    for name, value in bad:
        path.write_text(json.dumps({**good, name: value}))
        with pytest.raises(ParseError, match=f"invalid report field '{name}'"):
            read_report(path)
    contradictions = [  # each field well-typed, the whole inconsistent
        ({"n_pairs": 1, "true_positives": 7, "true_negatives": 1}, "n_pairs"),
        ({"n_pairs": 5}, "n_pairs"),
        ({"rejection_rate": 0.25}, "rejection_rate"),
        ({"tp_rate_among_accepted": 1.0}, "tp_rate_among_accepted"),
        ({"true_positives": 0, "false_positives": 0, "true_negatives": 3,
          "rejection_rate": 1.0, "tp_rate_among_accepted": 0.5}, "tp_rate_among_accepted"),
    ]
    for fields, name in contradictions:
        path.write_text(json.dumps({**good, **fields}))
        with pytest.raises(ParseError, match=name):
            read_report(path)
    empty = {**good, "n_pairs": 0, "true_positives": 0, "false_positives": 0,
             "true_negatives": 0, "false_negatives": 0, "rejection_rate": 0.0,
             "tp_rate_among_accepted": 0.0}
    path.write_text(json.dumps(empty))
    assert read_report(path).n_pairs == 0
    for text in ("NaN", "Infinity"):  # Python's json reads both
        path.write_text(json.dumps(good).replace("10.0", text))
        with pytest.raises(ParseError, match="'threshold_m'"):
            read_report(path)
