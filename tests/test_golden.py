"""Frozen output bytes: sha256 digests of CLI output files for fixed flags and seeds.

Pool generation, matching, calibration, evaluation and every report format
are deterministic, so a change that claims to leave results alone must leave
these digests equal. They were recorded once from a known-good build; a
change that alters output on purpose records new ones and says why.
"""

import contextlib
import hashlib
import io

import pytest

from dlcss import GridGraph, Route, read_geojson
from dlcss.cli import main

GEN_DIGESTS = {
    "pool.geojson": "d9925daade8a34902b782bba0aa57cf5acbe0011bf44731ee143cdfbd6c42f78",
    "graph.json": "20745480552d00e9962948b853ffa4edb9a55efdfc1eeb12ad6a38aae5223545",
    "decisions.jsonl": "1c426cc5bd84bce02e5f34d742d2947d54e895fae2e53e7d01fbaddeda268baa",
}

# (seed, format) -> digest of `dlcss eval --n 100 --seed S --calibrate --format F`
CALIBRATED_EVAL_DIGESTS = {
    (0, "json"): "179279a1ad57acf6cfd74482be72cb9c2ae7647047eb764df1318fdd4a9e293a",
    (0, "csv"): "c9681f34190880c4333b1b8d14890b845d8fb38bf9e3744fbccb522540608a83",
    (0, "plot-data"): "ead81b6c5d77f42c85d9d491c33e6d8953bd16b4d03da875a8fcb36c30036bd1",
    (1, "json"): "efd1f4ed2379f3a55844f83b8a6beeb9795c4262a8bb910482ce16959e1e95b3",
    (1, "csv"): "75bb80d713d22572934aef0931bdbddd984fa18c9b52928432a6d368e65e8f06",
    (1, "plot-data"): "ce0c263318f33625a4978606c06190b0a58756558000315927532a653bc72c26",
}

# format -> digest of `dlcss eval --pool P --graph G --calibrate` on the `gen --n 60 --seed 3`
# files: the GeoJSON and graph-file path into the oracle
FILE_EVAL_DIGESTS = {
    "json": "608b3c3ce096da6600faf74dd6ed5fd8ae80e9511febc2ec76c925a475ced99b",
    "plot-data": "efa992eca7c250c162340df8ec792092313d8971e6913054bbd1b6334a15f59f",
}

# digest of `dlcss match --pool A --requests B`, A and B from `gen --n 60 --seed 3` and
# `gen --n 40 --seed 4`: the two-file path the benchmark's match workload times
REQUESTS_MATCH_DIGEST = "c9c1a522822aaeded8e78f4725f82598a1b67604699e7d6e416439fbecb850f8"

CROSS_VALIDATED_DIGEST = "f6014b1d76dbd43b933f4c6eb4936aa42d5815475ba0d93df0c4f0dca1e7fbae"

# (vehicle, request) -> digest of `dlcss meeting` on the `gen --n 60 --seed 3` files;
# a meeting point rescues r008, and none rescues r001
MEETING_DIGESTS = {
    ("r000", "r008"): "c673a2cad645c82f15ce0f9c7da5800e41f2f6ede6608bd57513963664f74ad8",
    ("r000", "r001"): "2d811012985c43f0741dc424ae3d6910eb2a80cfdcdba7ec31f5cb514f8a8be2",
}


def run(*args):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(args)) == 0


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_gen_and_match_bytes(tmp_path):
    pool, graph, decisions = (tmp_path / name for name in GEN_DIGESTS)
    run("gen", "--n", "60", "--seed", "3", "--out", str(pool), "--graph-out", str(graph))
    run("match", "--pool", str(pool), "--out", str(decisions))
    assert {name: sha256(tmp_path / name) for name in GEN_DIGESTS} == GEN_DIGESTS


def match_requests(tmp_path):
    fleet, batch, decisions = (tmp_path / name for name in ("a.geojson", "b.geojson", "d.jsonl"))
    for out, n, seed in ((fleet, "60", "3"), (batch, "40", "4")):
        run("gen", "--n", n, "--seed", seed, "--out", str(out),
            "--graph-out", str(tmp_path / "graph.json"))
    run("match", "--pool", str(fleet), "--requests", str(batch), "--out", str(decisions))
    return sha256(decisions)


def test_match_requests_bytes(tmp_path):
    assert match_requests(tmp_path) == REQUESTS_MATCH_DIGEST


def test_match_reads_no_route_points(tmp_path, monkeypatch):
    """``dlcss match`` works from the stored point arrays alone: with
    ``Route.points`` made to raise, it writes the same bytes."""
    def no_points(route):
        raise AssertionError(f"Route.points read for {route.id!r}")

    monkeypatch.setattr(Route, "points", property(no_points))
    assert match_requests(tmp_path) == REQUESTS_MATCH_DIGEST


@pytest.mark.parametrize("seed", [0, 1])
def test_calibrated_eval_bytes(tmp_path, seed):
    digests = {}
    for fmt in ("json", "csv", "plot-data"):
        out = tmp_path / f"report.{fmt}"
        run("eval", "--n", "100", "--seed", str(seed), "--calibrate", "--format", fmt,
            "--out", str(out))
        digests[seed, fmt] = sha256(out)
    assert digests == {k: v for k, v in CALIBRATED_EVAL_DIGESTS.items() if k[0] == seed}


def test_file_eval_bytes(tmp_path):
    pool, graph = tmp_path / "pool.geojson", tmp_path / "graph.json"
    run("gen", "--n", "60", "--seed", "3", "--out", str(pool), "--graph-out", str(graph))
    digests = {}
    for fmt in FILE_EVAL_DIGESTS:
        out = tmp_path / f"report.{fmt}"
        run("eval", "--pool", str(pool), "--graph", str(graph), "--calibrate", "--format", fmt,
            "--out", str(out))
        digests[fmt] = sha256(out)
    assert digests == FILE_EVAL_DIGESTS


def test_cross_validated_eval_bytes(tmp_path):
    out = tmp_path / "report.json"
    run("eval", "--seed", "0", "--cross-validate", "5", "--out", str(out))
    assert sha256(out) == CROSS_VALIDATED_DIGEST


def write_meeting_points(path, g, request_start):
    """Every node within two blocks of the request's start, on the node and off it."""
    r0, c0 = divmod(g.snap(request_start), g.cols)
    lines = ["id,lat,lon,label"]
    for v in range(g.num_nodes):
        r, c = divmod(v, g.cols)
        if abs(r - r0) + abs(c - c0) <= 2:
            lat, lon = float(g.node_lats[v]), float(g.node_lons[v])
            lines.append(f"n{v:03d},{lat!r},{lon!r},node")
            # off the node, and off the grid where the node is on its north or east edge
            lines.append(f"m{v:03d},{lat + 0.3 * g.dlat_deg!r},{lon + 0.3 * g.dlon_deg!r},")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("vehicle, request_id", list(MEETING_DIGESTS))
def test_meeting_bytes(tmp_path, vehicle, request_id):
    pool, graph, points, out = (tmp_path / name for name in
                                ("pool.geojson", "graph.json", "points.csv", "meeting.json"))
    run("gen", "--n", "60", "--seed", "3", "--out", str(pool), "--graph-out", str(graph))
    start = {r.id: r for r in read_geojson(pool).routes}[request_id].points[0]
    write_meeting_points(points, GridGraph.read_json(graph), start)
    run("meeting", "--pool", str(pool), "--graph", str(graph), "--vehicle", vehicle,
        "--request", request_id, "--points", str(points), "--out", str(out))
    assert sha256(out) == MEETING_DIGESTS[vehicle, request_id]
