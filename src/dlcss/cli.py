"""Command line front end: pool generation, matching, evaluation, sweeps.

Every subcommand is deterministic for fixed flags and seeds; all randomness
flows from an explicit --seed. Exit codes: 0 success, 1 domain/validation
error, 2 I/O or parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import core, evaluation, matching, meeting_points, pools, routing
from .errors import DomainError, ParseError
from .geo import Coordinate
from .routing import GridGraph


def _float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("expected at least one value")
    return values


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("grid", "synthetic road grid parameters")
    g.add_argument("--rows", type=int, default=20, help="grid rows (default: %(default)s)")
    g.add_argument("--cols", type=int, default=20, help="grid columns (default: %(default)s)")
    g.add_argument(
        "--spacing", dest="spacing_m", type=float, default=250.0,
        help="node spacing in meters (default: %(default)s)",
    )
    g.add_argument(
        "--removal-fraction", type=float, default=0.10,
        help="fraction of edges removed, connectivity preserved (default: %(default)s)",
    )
    g.add_argument(
        "--origin-lat", type=float, default=50.75,
        help="grid south-west corner latitude (default: %(default)s)",
    )
    g.add_argument(
        "--origin-lon", type=float, default=6.08,
        help="grid south-west corner longitude (default: %(default)s)",
    )


def _build_grid(cfg: argparse.Namespace) -> GridGraph:
    if cfg.graph is not None:
        return GridGraph.read_json(cfg.graph)
    return GridGraph.build(
        rows=cfg.rows,
        cols=cfg.cols,
        origin=Coordinate(cfg.origin_lat, cfg.origin_lon),
        spacing_m=cfg.spacing_m,
        removal_fraction=cfg.removal_fraction,
        seed=cfg.seed,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlcss",
        description="Route similarity matching for shared rides: generate route "
        "pools, score pairs, search meeting points, and evaluate thresholds.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="generate a synthetic route pool and its road grid")
    _add_grid_args(p)
    p.add_argument("--n", type=int, default=100, help="number of routes (default: %(default)s)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default: %(default)s)")
    p.add_argument(
        "--min-length", dest="min_length_m", type=float, default=0.0,
        help="minimum route length in meters (default: %(default)s)",
    )
    p.add_argument("--out", type=Path, default=Path("pool.geojson"),
                   help="pool GeoJSON output (default: %(default)s)")
    p.add_argument("--graph-out", type=Path, default=Path("graph.json"),
                   help="grid graph JSON output (default: %(default)s)")
    p.set_defaults(func=cmd_gen, graph=None)  # gen always builds its grid

    p = sub.add_parser("match", help="score all vehicle/request pairs against a threshold")
    p.add_argument("--pool", type=Path, required=True, help="vehicle pool GeoJSON")
    p.add_argument("--requests", type=Path, default=None,
                   help="request pool GeoJSON (default: the vehicle pool)")
    p.add_argument("--threshold", dest="threshold_m", type=float,
                   default=matching.DEFAULT_THRESHOLD_M,
                   help="acceptance threshold in meters (default: %(default)s)")
    p.add_argument("--out", type=Path, default=Path("decisions.jsonl"),
                   help="JSON-lines decisions output (default: %(default)s)")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("eval", help="score a pool, label with the routing oracle, report rates")
    _add_grid_args(p)
    p.add_argument("--pool", type=Path, default=None,
                   help="pool GeoJSON (default: generate per --n/--seed)")
    p.add_argument("--graph", type=Path, default=None,
                   help="grid graph JSON (default: build per grid flags and --seed)")
    p.add_argument("--n", type=int, default=100,
                   help="generated pool size when --pool is absent (default: %(default)s)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default: %(default)s)")
    p.add_argument("--min-length", dest="min_length_m", type=float, default=0.0,
                   help="minimum generated route length in meters (default: %(default)s)")
    p.add_argument("--threshold", dest="threshold_m", type=float,
                   default=matching.DEFAULT_THRESHOLD_M,
                   help="acceptance threshold in meters; also the calibration fallback "
                        "(default: %(default)s)")
    p.add_argument("--calibrate", action="store_true",
                   help="replace --threshold with the zero-false-negative calibration")
    p.add_argument("--cross-validate", dest="cv_folds", type=int, default=0,
                   help="k-fold cross-validated calibration instead of in-sample "
                        "(default: off)")
    p.add_argument("--format", dest="fmt", choices=evaluation.REPORT_FORMATS, default="json",
                   help="report format (default: %(default)s)")
    p.add_argument("--out", type=Path, default=Path("report.json"),
                   help="report output path (default: %(default)s)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="tabulate the metric over overlap/segment-sum grids")
    p.add_argument("--fractions", type=_float_list, required=True,
                   help="comma-separated overlap fractions in (0, 1]")
    p.add_argument("--sums", type=_float_list, required=True,
                   help="comma-separated segment distance sums in meters")
    p.add_argument("--out", type=Path, default=Path("sweep.csv"),
                   help="CSV output path (default: %(default)s)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("meeting", help="search meeting points for one above-threshold pair")
    _add_grid_args(p)
    p.add_argument("--pool", type=Path, required=True, help="pool GeoJSON with both routes")
    p.add_argument("--vehicle", required=True, help="vehicle route id within the pool")
    p.add_argument("--request", required=True, help="request route id within the pool")
    p.add_argument("--points", type=Path, required=True,
                   help="meeting point CSV (header id,lat,lon,label)")
    p.add_argument("--graph", type=Path, default=None,
                   help="grid graph JSON (default: build per grid flags and --seed)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the built grid when --graph is absent (default: %(default)s)")
    p.add_argument("--threshold", dest="threshold_m", type=float,
                   default=matching.DEFAULT_THRESHOLD_M,
                   help="acceptance threshold in meters (default: %(default)s)")
    p.add_argument("--out", type=Path, default=Path("meeting.json"),
                   help="result JSON output (default: %(default)s)")
    p.set_defaults(func=cmd_meeting)

    return parser


def cmd_gen(cfg: argparse.Namespace) -> int:
    g = _build_grid(cfg)
    pool = pools.generate_pool(g, cfg.n, cfg.seed, cfg.min_length_m)
    pools.write_geojson(pool, cfg.out)
    g.write_json(cfg.graph_out)
    print(f"wrote {len(pool)} routes to {cfg.out} and grid to {cfg.graph_out}")
    return 0


#: A decision line: the keys, separators and order of ``json.dumps(row, sort_keys=True)``.
_DECISION_LINE = '{{"a_id": {}, "accepted": {}, "r_id": {}, "sm": {}, "threshold_m": {}}}\n'.format


def cmd_match(cfg: argparse.Namespace) -> int:
    vehicles = pools.read_geojson(cfg.pool)
    requests = vehicles if cfg.requests is None else pools.read_geojson(cfg.requests)
    decisions = matching.filter_pool(vehicles.routes, requests.routes, threshold=cfg.threshold_m)
    # the json module's own string and float forms: ids quoted once, numbers by float.__repr__
    quoted = {r.id: encode_basestring_ascii(r.id) for r in vehicles.routes + requests.routes}
    number = float.__repr__
    with Path(cfg.out).open("w", encoding="utf-8") as fh:
        fh.writelines(
            _DECISION_LINE(quoted[d.a_id], "true" if d.accepted else "false", quoted[d.r_id],
                           number(d.sm) if math.isfinite(d.sm) else "null", number(d.threshold))
            for d in decisions
        )
    accepted = sum(1 for d in decisions if d.accepted)
    print(f"wrote {len(decisions)} decisions to {cfg.out} ({accepted} accepted)")
    return 0


def cmd_eval(cfg: argparse.Namespace) -> int:
    if cfg.cv_folds and cfg.calibrate:
        raise DomainError("--calibrate and --cross-validate exclude each other: "
                          "cross-validation calibrates every fold itself")
    g = _build_grid(cfg)
    if cfg.pool is not None:
        pool = pools.read_geojson(cfg.pool)
    else:
        pool = pools.generate_pool(g, cfg.n, cfg.seed, cfg.min_length_m)
    if cfg.cv_folds:
        report = evaluation.cross_validated_eval(
            pool, g, folds=cfg.cv_folds, seed=cfg.seed, default_m=cfg.threshold_m
        )
    else:
        threshold = cfg.threshold_m
        if cfg.calibrate:
            threshold = evaluation.calibrate_threshold(pool, g, default_m=cfg.threshold_m)
        report = evaluation.run_eval(pool, g, threshold)
    evaluation.emit_report(report, cfg.fmt, cfg.out)
    print(
        f"evaluated {report.n_pairs} pairs at threshold {report.threshold_m:.1f} m: "
        f"rejection_rate={report.rejection_rate:.4f} "
        f"FN={report.false_negatives} -> {cfg.out}"
    )
    return 0


def cmd_sweep(cfg: argparse.Namespace) -> int:
    grid = core.metric_sweep(list(cfg.fractions), list(cfg.sums))
    lines = ["overlap_fraction,segment_sum,sm"]
    for i, frac in enumerate(cfg.fractions):
        for j, seg_sum in enumerate(cfg.sums):
            lines.append(f"{frac!r},{seg_sum!r},{float(grid[i, j])!r}")
    Path(cfg.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(cfg.fractions) * len(cfg.sums)} sweep rows to {cfg.out}")
    return 0


def cmd_meeting(cfg: argparse.Namespace) -> int:
    pool = pools.read_geojson(cfg.pool)
    by_id = {r.id: r for r in pool.routes}
    try:
        a = by_id[cfg.vehicle]
        r = by_id[cfg.request]
    except KeyError as exc:
        raise DomainError(f"route id {exc} not found in {cfg.pool}") from exc
    candidates = meeting_points.load_meeting_points(cfg.points)
    g = _build_grid(cfg)

    def provider(origin: Coordinate, destination: Coordinate):
        return routing.shortest_route(g, origin, destination)

    match = meeting_points.evaluate_meeting_points(
        a, r, candidates, provider, threshold_m=cfg.threshold_m
    )
    direct_sm = matching.score_pair(a, r)
    doc = {
        "vehicle": a.id,
        "request": r.id,
        "direct_sm": direct_sm if math.isfinite(direct_sm) else None,
        "threshold_m": cfg.threshold_m,
        "match": None
        if match is None
        else {
            "meeting_point_id": match.meeting_point_id,
            "sm": match.sm,
            "rerouted_request": {
                "id": match.rerouted_request.id,
                "coordinates": match.rerouted_request.point_array[5:3:-1].T.tolist(),
            },
        },
    }
    Path(cfg.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if match is None:
        print(f"no meeting point within threshold -> {cfg.out}")
    else:
        print(f"meeting point {match.meeting_point_id} gives sm={match.sm:.1f} m -> {cfg.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return ns.func(ns)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
