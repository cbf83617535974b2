"""End-to-end command-line runs: files in, files out, stable exit codes."""

import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dlcss import (
    Coordinate, Route, RoutePool, filter_pool, generate_pool, read_geojson, read_report,
    write_geojson,
)
from dlcss.cli import main

import scenarios

SMALL_GRID = ["--rows", "8", "--cols", "8"]


def run_gen(tmp_path, *extra):
    pool = tmp_path / "pool.geojson"
    graph = tmp_path / "graph.json"
    code = main(
        ["gen", *SMALL_GRID, "--n", "10", "--seed", "5",
         "--out", str(pool), "--graph-out", str(graph), *extra]
    )
    assert code == 0
    return pool, graph


def test_gen_writes_pool_and_graph(tmp_path):
    pool, graph = run_gen(tmp_path)
    doc = json.loads(pool.read_text())
    assert doc["type"] == "FeatureCollection"
    assert len(doc["features"]) == 10
    assert doc["properties"]["seed"] == 5
    gdoc = json.loads(graph.read_text())
    assert gdoc["rows"] == 8


def test_gen_is_deterministic(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    p1, g1 = run_gen(tmp_path / "a")
    p2, g2 = run_gen(tmp_path / "b")
    assert p1.read_bytes() == p2.read_bytes()
    assert g1.read_bytes() == g2.read_bytes()


def test_gen_rejects_zero_routes(tmp_path):
    assert main(["gen", "--n", "0", "--out", str(tmp_path / "x.geojson")]) == 1


def test_match_self_pool(tmp_path):
    pool, _ = run_gen(tmp_path)
    out = tmp_path / "decisions.jsonl"
    assert main(["match", "--pool", str(pool), "--out", str(out)]) == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(lines) == 100  # 10 x 10 ordered pairs, self pairs included
    self_pairs = [d for d in lines if d["a_id"] == d["r_id"]]
    assert len(self_pairs) == 10
    assert all(d["accepted"] and d["sm"] == 0.0 for d in self_pairs)
    for d in lines:
        assert set(d) == {"a_id", "r_id", "sm", "threshold_m", "accepted"}
        assert d["sm"] is None or math.isfinite(d["sm"])


def test_match_zero_threshold(tmp_path):
    pool, _ = run_gen(tmp_path)
    out = tmp_path / "decisions.jsonl"
    assert main(["match", "--pool", str(pool), "--threshold", "0", "--out", str(out)]) == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    accepted = [d for d in lines if d["accepted"]]
    assert accepted and all(d["sm"] == 0.0 for d in accepted)


def test_match_pool_with_altitudes(tmp_path):
    pool, _ = run_gen(tmp_path)
    doc = json.loads(pool.read_text())
    for feat in doc["features"]:
        feat["geometry"]["coordinates"] = [[*pos, 42.0] for pos in feat["geometry"]["coordinates"]]
    high = tmp_path / "high.geojson"
    high.write_text(json.dumps(doc))
    out1 = tmp_path / "flat.jsonl"
    out2 = tmp_path / "high.jsonl"
    assert main(["match", "--pool", str(pool), "--out", str(out1)]) == 0
    assert main(["match", "--pool", str(high), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_match_pool_position_without_lat(tmp_path):
    bad = tmp_path / "bad.geojson"
    feature = {"type": "Feature", "properties": {"id": "r0"},
               "geometry": {"type": "LineString", "coordinates": [[6.0, 50.75], [6.01]]}}
    bad.write_text(json.dumps({"type": "FeatureCollection", "features": [feature]}))
    assert main(["match", "--pool", str(bad)]) == 2


def test_match_lines_equal_json_dumps_for_escaped_ids(tmp_path):
    """Each decision line is ``json.dumps(row, sort_keys=True)``: ids with a quote,
    a backslash, a control character, U+2028 and non-ASCII text, finite and
    ``NO_OVERLAP`` scores, accepted and rejected pairs."""
    ids = ['say "hi"', "back\\slash", "tab\there\x01", "line\u2028sep", "Zürich–Köln ✓"]
    base = [Coordinate(50.75, 6.0 + 0.01 * k) for k in range(4)]
    shapes = [base, base[::-1], [Coordinate(p.lat + 0.002, p.lon) for p in base],
              [Coordinate(p.lat + 0.02, p.lon) for p in base], [Coordinate(40.0, 6.0), base[0]]]
    pool = RoutePool(routes=[Route(i, pts) for i, pts in zip(ids, shapes)])
    path, out = tmp_path / "pool.geojson", tmp_path / "decisions.jsonl"
    write_geojson(pool, path)
    assert main(["match", "--pool", str(path), "--threshold", "2500", "--out", str(out)]) == 0
    rows = [
        {"a_id": d.a_id, "r_id": d.r_id, "sm": d.sm if math.isfinite(d.sm) else None,
         "threshold_m": d.threshold, "accepted": d.accepted}
        for d in filter_pool(read_geojson(path).routes, read_geojson(path).routes, 2500.0)
    ]
    assert {r["accepted"] for r in rows} == {True, False} and None in {r["sm"] for r in rows}
    want = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    assert out.read_text(encoding="utf-8") == want


def test_match_missing_pool_file(tmp_path):
    assert main(["match", "--pool", str(tmp_path / "absent.geojson")]) == 2


def test_match_garbage_pool_file(tmp_path):
    bad = tmp_path / "bad.geojson"
    bad.write_text("{nope")
    assert main(["match", "--pool", str(bad)]) == 2


@pytest.mark.parametrize(
    "case",
    ["pool-properties", "pool-encoding", "pool-bool-position", "graph-nodes-number",
     "graph-node-short", "graph-edge-fraction", "graph-rows-fraction", "graph-spacing-string",
     "graph-origin-string", "graph-removal-bool", "points-encoding", "pool-huge-int",
     "graph-spacing-huge-int", "graph-origin-huge-int"],
)
def test_malformed_file_exits_2(tmp_path, capsys, case):
    pool, graph = run_gen(tmp_path)
    bad = tmp_path / "bad"
    pool_doc, graph_doc = json.loads(pool.read_text()), json.loads(graph.read_text())
    if case == "pool-properties":
        pool_doc["features"][0]["properties"] = "r000"
        bad.write_text(json.dumps(pool_doc))
    elif case == "pool-bool-position":  # float(True) would read as 1.0
        pool_doc["features"][0]["geometry"]["coordinates"] = [[True, False], [False, True]]
        bad.write_text(json.dumps(pool_doc))
    elif case == "graph-edge-fraction":  # int() would truncate it to edge (0, 1)
        graph_doc["edges"][0] = [0.9, 1.7]
        bad.write_text(json.dumps(graph_doc))
    elif case == "graph-rows-fraction":  # int() would truncate it to 8
        graph_doc["rows"] = 8.9
        bad.write_text(json.dumps(graph_doc))
    elif case == "graph-spacing-string":  # float() would read it as 250.0
        graph_doc["spacing_m"] = str(graph_doc["spacing_m"])
        bad.write_text(json.dumps(graph_doc))
    elif case == "graph-origin-string":
        graph_doc["origin"]["lat"] = str(graph_doc["origin"]["lat"])
        bad.write_text(json.dumps(graph_doc))
    elif case == "graph-removal-bool":  # float(True) would read as 1.0
        graph_doc["removal_fraction"] = True
        bad.write_text(json.dumps(graph_doc))
    elif case == "pool-huge-int":  # float() overflows on a 400-digit integer
        pool_doc["features"][0]["geometry"]["coordinates"][0][0] = 10**400
        bad.write_text(json.dumps(pool_doc))
    elif case == "graph-spacing-huge-int":
        graph_doc["spacing_m"] = 10**400
        bad.write_text(json.dumps(graph_doc))
    elif case == "graph-origin-huge-int":
        graph_doc["origin"]["lat"] = 10**400
        bad.write_text(json.dumps(graph_doc))
    elif case == "graph-nodes-number":
        graph_doc["nodes"] = 5
        bad.write_text(json.dumps(graph_doc))
    elif case == "graph-node-short":
        graph_doc["nodes"][0] = [1]
        bad.write_text(json.dumps(graph_doc))
    else:
        bad.write_bytes(b"\xff\xfeid,lat,lon\n")  # not UTF-8
    args, where = {
        "pool-properties": (["match", "--pool", str(bad)], "feature 0"),
        "pool-encoding": (["match", "--pool", str(bad)], str(bad)),
        "pool-bool-position": (["match", "--pool", str(bad)], "feature 0"),
        "pool-huge-int": (["match", "--pool", str(bad)], "feature 0"),
        "graph-spacing-huge-int": (["eval", "--graph", str(bad)], str(bad)),
        "graph-origin-huge-int": (["eval", "--graph", str(bad)], str(bad)),
        "graph-edge-fraction": (["eval", "--graph", str(bad)], str(bad)),
        "graph-rows-fraction": (["eval", "--graph", str(bad)], str(bad)),
        "graph-spacing-string": (["eval", "--graph", str(bad)], str(bad)),
        "graph-origin-string": (["eval", "--graph", str(bad)], str(bad)),
        "graph-removal-bool": (["eval", "--graph", str(bad)], str(bad)),
        "graph-nodes-number": (["eval", "--graph", str(bad)], str(bad)),
        "graph-node-short": (["eval", "--graph", str(bad)], str(bad)),
        "points-encoding": (["meeting", *SMALL_GRID, "--pool", str(pool), "--vehicle", "r000",
                             "--request", "r001", "--points", str(bad)], str(bad)),
    }[case]
    assert main(args + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err
    assert "Traceback" not in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


DELETE, DUPLICATE = object(), object()
NUMBER_BAD = [True, False, None, "6.08", [], {}, 10**400, -(10**400), math.nan, math.inf,
              -math.inf]
#: (path in the document, with F a feature and P a position index, and the values
#: that make it malformed; DELETE removes the member, DUPLICATE copies another
#: feature's id)
POOL_MUTATIONS = [
    ((), [[], 5, "x", None, "FeatureCollection"]),
    (("type",), [DELETE, "Feature", None, 5]),
    (("features",), [DELETE, None, {}, "x", 5]),
    (("properties",), [[], 0, False, "", 5, "x", [1], True]),
    (("features", "F"), [None, [], 5, "x", {}]),
    (("features", "F", "properties"), [DELETE, None, [], 5, "x", {}]),
    (("features", "F", "properties", "id"), [DELETE, DUPLICATE, "", None, 5, True, []]),
    (("features", "F", "geometry"), [DELETE, None, [], "x", 5, {}]),
    (("features", "F", "geometry", "type"), [DELETE, "Point", "MultiLineString", None, 5]),
    (("features", "F", "geometry", "coordinates"), [DELETE, [], [[6.1, 50.8]], "x", None, {}, 5]),
    (("features", "F", "geometry", "coordinates", "P"), [[6.1], [], "x", 5, None, {}]),
    (("features", "F", "geometry", "coordinates", "P", 0), [*NUMBER_BAD, 180.5, -181]),
    (("features", "F", "geometry", "coordinates", "P", 1), [*NUMBER_BAD, 90.5, -91]),
]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory, intact_grid):
    path = tmp_path_factory.mktemp("fuzz")
    write_geojson(generate_pool(intact_grid, n=3, seed=1), path / "valid.geojson")
    return path


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_pool_file_exits_2_with_one_error_line(fuzz_dir, data):
    """A valid pool file broken at any level (wrong JSON types, bools, strings,
    400-digit integers, NaN and Infinity tokens, short or non-list positions,
    empty or duplicate ids, a byte order mark) makes ``dlcss match`` exit 2 with
    one ``error:`` line, never a traceback or a result."""
    text = (fuzz_dir / "valid.geojson").read_text()
    mutation = data.draw(st.sampled_from([*POOL_MUTATIONS, "bom"]))
    if mutation == "bom":
        text = "\ufeff" + text
    else:
        path, values = mutation
        doc = json.loads(text)
        f = data.draw(st.integers(0, len(doc["features"]) - 1))
        p = data.draw(st.integers(0, len(doc["features"][f]["geometry"]["coordinates"]) - 1))
        keys = [{"F": f, "P": p}.get(k, k) for k in path]
        value = data.draw(st.sampled_from(values))
        if value is DUPLICATE:
            value = doc["features"][(f + 1) % len(doc["features"])]["properties"]["id"]
        if not keys:
            doc = value
        else:
            parent = doc
            for k in keys[:-1]:
                parent = parent[k]
            if value is DELETE:
                del parent[keys[-1]]
            else:
                parent[keys[-1]] = value
        text = json.dumps(doc)
    pool, decisions = fuzz_dir / "pool.geojson", fuzz_dir / "d.jsonl"
    pool.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["match", "--pool", str(pool), "--out", str(decisions)])
    lines = err.getvalue().splitlines()
    assert code == 2, err.getvalue()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "Traceback" not in lines[0]
    assert out.getvalue() == "" and not decisions.exists()


def test_eval_calibrated_run(tmp_path):
    # this pool's compatible pairs all score finite, so the calibrated
    # threshold covers every one of them
    pool, graph = run_gen(tmp_path)
    out = tmp_path / "report.json"
    code = main(
        ["eval", "--pool", str(pool), "--graph", str(graph),
         "--calibrate", "--out", str(out)]
    )
    assert code == 0
    report = read_report(out)
    assert report.false_negatives == 0
    assert report.n_pairs == 90


def test_eval_pool_off_the_graph_exits_1(tmp_path, capsys):
    """A pool drawn on a larger grid has routes the graph cannot label."""
    pool, _ = run_gen(tmp_path)
    other = tmp_path / "other"
    other.mkdir()
    _, graph = run_gen(other, "--spacing", "100")
    out = tmp_path / "report.json"
    assert main(["eval", "--pool", str(pool), "--graph", str(graph), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: route '")
    assert not out.exists()


def test_eval_rerun_is_byte_identical(tmp_path):
    pool, graph = run_gen(tmp_path)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["eval", "--pool", str(pool), "--graph", str(graph), "--threshold", "20000"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_eval_generates_when_no_pool_given(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["eval", *SMALL_GRID, "--n", "8", "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    assert read_report(out).n_pairs == 8 * 7


def test_eval_cross_validated(tmp_path):
    pool, graph = run_gen(tmp_path)
    out = tmp_path / "cv.json"
    code = main(
        ["eval", "--pool", str(pool), "--graph", str(graph),
         "--cross-validate", "3", "--out", str(out)]
    )
    assert code == 0
    report = read_report(out)
    assert report.n_pairs > 0


def test_eval_calibrate_and_cross_validate_exclude_each_other(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["eval", *SMALL_GRID, "--n", "20", "--seed", "1", "--cross-validate", "2",
         "--calibrate", "--out", str(out)]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: --calibrate and --cross-validate")
    assert not out.exists()


def test_eval_plot_data_format(tmp_path):
    pool, graph = run_gen(tmp_path)
    out = tmp_path / "scatter.csv"
    code = main(
        ["eval", "--pool", str(pool), "--graph", str(graph),
         "--format", "plot-data", "--out", str(out)]
    )
    assert code == 0
    assert len(out.read_text().strip().splitlines()) == 90


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--fractions", "0.25,0.5,1.0", "--sums", "0,10,20",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "overlap_fraction,segment_sum,sm"
    assert len(lines) == 1 + 9
    assert "0.25,10.0,40.0" in lines


def test_sweep_rejects_bad_fraction(tmp_path):
    assert main(["sweep", "--fractions", "0.0", "--sums", "1",
                 "--out", str(tmp_path / "x.csv")]) == 1


def test_sweep_rejects_nan(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["sweep", "--fractions", "nan,0.5", "--sums", "10,nan", "--out", str(out)]) == 1
    assert not out.exists()


def test_sweep_rejects_unparseable_fraction(tmp_path):
    assert main(["sweep", "--fractions", "abc", "--sums", "1",
                 "--out", str(tmp_path / "x.csv")]) == 1


def meeting_setup(tmp_path, intact_grid):
    a = scenarios.meeting_vehicle(intact_grid)
    r = scenarios.meeting_request(intact_grid)
    pool_path = tmp_path / "pair.geojson"
    write_geojson(RoutePool(routes=[a, r]), pool_path)
    points_path = tmp_path / "points.csv"
    rows = ["id,lat,lon,label"]
    for m in scenarios.meeting_candidates(intact_grid):
        rows.append(f"{m.id},{m.location.lat!r},{m.location.lon!r},")
    points_path.write_text("\n".join(rows) + "\n")
    return a, r, pool_path, points_path


def test_meeting_end_to_end(tmp_path, intact_grid):
    a, r, pool_path, points_path = meeting_setup(tmp_path, intact_grid)
    out = tmp_path / "meeting.json"
    code = main(
        ["meeting", "--rows", "12", "--cols", "12", "--removal-fraction", "0",
         "--pool", str(pool_path), "--vehicle", a.id, "--request", r.id,
         "--points", str(points_path),
         "--threshold", str(scenarios.MEETING_THRESHOLD_M), "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["match"]["meeting_point_id"] == "mp-corridor"
    # GeoJSON rounds coordinates to 7 decimals, nudging the score slightly
    assert math.isclose(
        doc["match"]["sm"], scenarios.MEETING_CANDIDATE_SM["mp-corridor"], rel_tol=1e-4
    )
    assert doc["direct_sm"] > scenarios.MEETING_THRESHOLD_M


def test_meeting_without_viable_candidate(tmp_path, intact_grid):
    a, r, pool_path, points_path = meeting_setup(tmp_path, intact_grid)
    out = tmp_path / "meeting.json"
    code = main(
        ["meeting", "--rows", "12", "--cols", "12", "--removal-fraction", "0",
         "--pool", str(pool_path), "--vehicle", a.id, "--request", r.id,
         "--points", str(points_path), "--threshold", "1000", "--out", str(out)]
    )
    assert code == 0
    assert json.loads(out.read_text())["match"] is None


def test_meeting_unknown_route_id(tmp_path, intact_grid):
    _, r, pool_path, points_path = meeting_setup(tmp_path, intact_grid)
    code = main(
        ["meeting", "--rows", "12", "--cols", "12", "--removal-fraction", "0",
         "--pool", str(pool_path), "--vehicle", "nope", "--request", r.id,
         "--points", str(points_path), "--out", str(tmp_path / "m.json")]
    )
    assert code == 1


@pytest.mark.parametrize("command", ["match", "eval", "eval-calibrate", "eval-cv", "meeting"])
def test_nan_threshold_exits_1(tmp_path, intact_grid, command):
    pool, graph = run_gen(tmp_path)
    out = ["--out", str(tmp_path / "out")]
    if command == "match":
        args = ["match", "--pool", str(pool)]
    elif command.startswith("eval"):
        args = ["eval", "--pool", str(pool), "--graph", str(graph)]
        args += {"eval": [], "eval-calibrate": ["--calibrate"],
                 "eval-cv": ["--cross-validate", "3"]}[command]
    else:
        a, r, pool_path, points_path = meeting_setup(tmp_path, intact_grid)
        args = ["meeting", "--rows", "12", "--cols", "12", "--removal-fraction", "0",
                "--pool", str(pool_path), "--vehicle", a.id, "--request", r.id,
                "--points", str(points_path)]
    # JSON has neither nan nor inf; zero is legal everywhere (it accepts exact-zero scores)
    for value, code in (("nan", 1), ("inf", 1), ("-1", 1), ("0", 0)):
        assert main(args + ["--threshold", value] + out) == code, value
        assert (tmp_path / "out").exists() == (code == 0)


def test_usage_errors_and_help():
    assert main(["--help"]) == 0
    assert main(["frobnicate"]) == 1
    assert main(["match"]) == 1  # --pool is required
    assert main(["match", "--pool", "p.geojson", "--jobs", "2"]) == 1  # no such flag


def test_console_script_runs():
    src = Path(__file__).resolve().parents[1] / "src"  # -m imports from the working directory
    proc = subprocess.run(
        [sys.executable, "-m", "dlcss.cli", "--help"], cwd=src, capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "gen" in proc.stdout


def test_gen_rejects_a_grid_with_zero_length_edges(tmp_path, capsys):
    # at 1 cm spacing the haversine reads some edges as 0.0 m, and routing would cycle
    out, graph = tmp_path / "pool.geojson", tmp_path / "graph.json"
    code = main(["gen", "--rows", "6", "--cols", "7", "--spacing", "0.01", "--n", "20",
                 "--out", str(out), "--graph-out", str(graph)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: edge ")
    assert not out.exists() and not graph.exists()


@pytest.mark.parametrize("fraction", [7.5, -0.1, float("nan")])
def test_eval_rejects_graph_removal_fraction_out_of_range(tmp_path, capsys, fraction):
    _, graph = run_gen(tmp_path)
    doc = json.loads(graph.read_text())
    doc["removal_fraction"] = fraction
    graph.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert main(["eval", "--graph", str(graph), "--n", "10", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: removal_fraction must be in [0, 1)")
    assert not out.exists()


def test_eval_rejects_graph_file_with_zero_length_edges(tmp_path, capsys):
    _, graph = run_gen(tmp_path)
    doc = json.loads(graph.read_text())
    doc["spacing_m"] = 0.01
    del doc["nodes"]
    graph.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert main(["eval", "--graph", str(graph), "--n", "10", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: edge ")
    assert not out.exists()


def test_infinite_spacing_exits_1_naming_the_spacing(tmp_path, capsys):
    """An infinite spacing, on the command line or in a graph file, fails as a
    spacing, not as the NaN node latitude it would make."""
    out = tmp_path / "report.json"
    assert main(["eval", "--n", "5", "--spacing", "inf", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: spacing_m must be positive and finite, got inf\n"
    _, graph = run_gen(tmp_path)
    doc = json.loads(graph.read_text())
    doc["spacing_m"] = math.inf
    graph.write_text(json.dumps(doc))
    assert '"spacing_m": Infinity' in graph.read_text()
    assert main(["eval", "--graph", str(graph), "--n", "10", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: spacing_m must be positive and finite, got inf\n"
    assert not out.exists()
