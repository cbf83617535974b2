"""The three benchmark workloads: inputs, the timed operation, output checks.

Each workload builds its inputs from the run's seed, sets up what a user
would before the first operation (``setup``, timed as set-up, except the
harness's own work inside it, marked ``with self.untimed()``), prepares
independent expectations (``prepare``, not timed), and then runs rounds of
the same operations. ``inputs`` makes the fresh per-operation objects
outside the timed region, ``run`` is the timed call into dlcss, and
``check`` compares its output with computations made apart from the
program, returning a description of the first problem or None.

The program is always reached through module attributes
(``self.dlcss.evaluation.run_eval``), so the tracer's wrappers see every
call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from collections import Counter
from pathlib import Path

import independent as ind

#: Sizes of a full run. eval_pool: routes per pool and pools per round.
#: match_dense: vehicles in the fleet, request batches per round, requests per
#: batch. meeting_rescue: routes in the pool the pairs are drawn from, and
#: pairs per round.
FULL = {
    "eval_routes": 100, "eval_pools": 4,
    "fleet": 40, "batches": 6, "batch_size": 10,
    "rescue_pool": 150, "rescue_pairs": 160,
}
#: Sizes of a smoke run: every workload and check in a few seconds.
SMOKE = {
    "eval_routes": 12, "eval_pools": 1,
    "fleet": 4, "batches": 2, "batch_size": 3,
    "rescue_pool": 40, "rescue_pairs": 4,
}
#: match_dense: points per resampled route, GPS jitter (1 sigma).
DENSE_POINTS, JITTER_M = 100, 3.0
#: match_dense: shorter grid routes would put points under ~20 m apart.
DENSE_MIN_LENGTH_M = 2000.0
MATCH_THRESHOLD_M = 20_000.0
#: meeting_rescue: candidate radius in grid blocks (Manhattan) around the
#: request's start, and the acceptance threshold of the rerouted request.
RESCUE_RADIUS = 2
RESCUE_THRESHOLD_M = 20_000.0


class Workload:
    name = ""

    def __init__(self, dlcss, reference, seed: int, workdir: Path, smoke: bool) -> None:
        self.dlcss = dlcss
        self.ref = reference
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.size = SMOKE if smoke else FULL
        self.untimed_s = 0.0

    @contextlib.contextmanager
    def untimed(self):
        """Adds the time of the block to ``untimed_s``, which ``setup_s`` leaves out."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.untimed_s += time.perf_counter() - t0

    def _ref_score(self, a, r) -> tuple[float, list]:
        segs = self.ref.reference_segments(a, r)
        return self.ref.reference_sm(segs, a), segs

    def _program_sample_problem(self, a, r, ref_segs) -> str | None:
        """Segments from the program equal the reference's and keep temporal order."""
        res = self.dlcss.core.compute_dlcss(a, r)
        got = [(s.distance_m, s.a_index, s.r_index) for s in res.segments]
        if got != [tuple(s) for s in ref_segs]:
            return f"segments of ({a.id}, {r.id}) differ from the reference"
        problem = ind.ordering_problem([(s.a_index, s.r_index) for s in res.segments])
        if problem:
            return f"({a.id}, {r.id}): {problem}"
        if self.dlcss.core.compute_dlcss(a, a).sm != 0.0:
            return f"self-match of {a.id} does not score 0"
        return None


class EvalPool(Workload):
    """Calibrate and evaluate one 100-route pool, Dijkstra memo cold."""

    name = "eval_pool"

    def setup(self):
        d = self.dlcss
        rng = random.Random(f"{self.name}:{self.seed}")
        g = d.routing.GridGraph.build()
        seeds = [rng.randrange(2**31) for _ in range(self.size["eval_pools"])]
        pools = [d.pools.generate_pool(g, self.size["eval_routes"], s) for s in seeds]
        return g, pools

    def prepare(self, state) -> None:
        self.g, self.pools = state
        oracle = ind.GridOracle(self.g)
        self.expect = []
        for pool in self.pools:
            routes = sorted(pool.routes, key=lambda x: x.id)
            ends = {r.id: oracle.route_ends(r) for r in routes}
            fraction = {
                (a.id, r.id): oracle.detour_fraction(ends[a.id], ends[r.id])
                for a in routes for r in routes if a.id != r.id
            }
            by_id = {r.id: r for r in routes}
            pairs = list(fraction)
            sample = self.rng.sample(pairs, min(50, len(pairs)))
            sampled = set(sample)
            ref = {}
            for key in pairs:
                if fraction[key] <= ind.DETOUR_LIMIT + ind.BOUNDARY_TOL or key in sampled:
                    ref[key] = self._ref_score(by_id[key[0]], by_id[key[1]])
            self.expect.append(
                {"order": pairs, "fraction": fraction, "ref": ref, "by_id": by_id,
                 "props": sample[:3]}
            )

    def round_keys(self):
        return list(range(len(self.pools)))

    def pairs(self, key) -> int:
        n = len(self.pools[key].routes)
        return n * (n - 1)

    def inputs(self, key):
        d, g, pool = self.dlcss, self.g, self.pools[key]
        # A fresh graph and fresh routes per operation: the Dijkstra memo and the
        # routes' cached trig start cold, as in one ``dlcss eval`` process.
        graph = d.routing.GridGraph(
            g.rows, g.cols, g.origin, g.spacing_m, g.edges, g.removal_fraction, g.seed
        )
        routes = [d.geo.Route(r.id, r.points) for r in pool.routes]
        return d.pools.RoutePool(routes=routes, metadata=pool.metadata), graph

    def run(self, args):
        pool, graph = args
        ev = self.dlcss.evaluation
        threshold = ev.calibrate_threshold(pool, graph)
        return threshold, ev.run_eval(pool, graph, threshold)

    def check(self, key, args, out) -> str | None:
        threshold, rep = out
        exp = self.expect[key]
        order = exp["order"]
        if [(o.a_id, o.r_id) for o in rep.pairs] != order or rep.n_pairs != len(order):
            return "report pairs are not every ordered pair once in (a_id, r_id) order"
        counts = [rep.true_positives, rep.false_positives, rep.true_negatives, rep.false_negatives]
        if sum(counts) != len(order):
            return f"confusion counts {counts} do not sum to {len(order)}"
        recount = Counter()
        compatible = []
        for o in rep.pairs:
            key2 = (o.a_id, o.r_id)
            if not o.sm >= 0.0:
                return f"{key2}: sm {o.sm} is negative or NaN"
            if o.accepted != (math.isfinite(o.sm) and o.sm <= threshold):
                return f"{key2}: accepted={o.accepted} disagrees with sm {o.sm} at {threshold}"
            f = exp["fraction"][key2]
            if o.compatible != (f <= ind.DETOUR_LIMIT) and abs(f - ind.DETOUR_LIMIT) > ind.BOUNDARY_TOL:
                return f"{key2}: labelled compatible={o.compatible}, detour fraction is {f}"
            if not (o.detour_fraction == f or abs(o.detour_fraction - f) <= ind.BOUNDARY_TOL):
                return f"{key2}: detour fraction {o.detour_fraction}, expected {f}"
            ref = exp["ref"].get(key2)
            if ref is None and o.compatible:  # a label within BOUNDARY_TOL of the limit
                ref = exp["ref"][key2] = self._ref_score(exp["by_id"][o.a_id], exp["by_id"][o.r_id])
            if ref is not None and o.sm != ref[0]:
                return f"{key2}: sm {o.sm!r} differs from the reference {ref[0]!r}"
            recount[(o.accepted, o.compatible)] += 1
            if o.compatible:
                compatible.append(ref[0])
        recount = [recount[k] for k in ((True, True), (True, False), (False, False), (False, True))]
        if recount != counts:
            return f"confusion counts {counts}, recounted {recount}"
        finite = [s for s in compatible if math.isfinite(s)]
        want = max(finite) if finite else self.dlcss.matching.DEFAULT_THRESHOLD_M
        if threshold != want:
            return f"calibrated threshold {threshold!r}, expected {want!r}"
        by_id = exp["by_id"]
        for a_id, r_id in exp["props"]:
            problem = self._program_sample_problem(by_id[a_id], by_id[r_id], exp["ref"][(a_id, r_id)][1])
            if problem:
                return problem
        return None


class MatchDense(Workload):
    """``dlcss match`` in-process: a dense fleet against a fresh request batch."""

    name = "match_dense"

    def setup(self):
        d = self.dlcss
        rng = random.Random(f"{self.name}:{self.seed}")
        g = d.routing.GridGraph.build()
        fleet = self._dense_pool(g, self.size["fleet"], "v", rng)
        batches = [self._dense_pool(g, self.size["batch_size"], "r", rng) for _ in range(self.size["batches"])]
        self.workdir.mkdir(parents=True, exist_ok=True)
        d.pools.write_geojson(fleet, self.workdir / "fleet.geojson")
        for k, batch in enumerate(batches):
            d.pools.write_geojson(batch, self.workdir / f"batch-{k}.geojson")
        return len(batches)

    def _dense_pool(self, g, n, prefix, rng):
        """Grid routes resampled to DENSE_POINTS points, with GPS-like jitter.

        Every route gets the same number of points, evenly spaced along its
        length (tens of metres apart), so every pair costs the same matrix.
        """
        d = self.dlcss
        base = d.pools.generate_pool(g, n, rng.randrange(2**31), min_length_m=DENSE_MIN_LENGTH_M)
        with self.untimed():
            return self._resample(base, prefix, rng)

    def _resample(self, base, prefix, rng):
        d = self.dlcss
        m_per_deg = 111_195.0
        routes = []
        for k, route in enumerate(base.routes):
            pts = route.points
            cum = [0.0]
            for p, q in zip(pts, pts[1:]):
                dy = (q.lat - p.lat) * m_per_deg
                dx = (q.lon - p.lon) * m_per_deg * math.cos(math.radians(p.lat))
                cum.append(cum[-1] + math.hypot(dx, dy))
            coords, leg = [], 0
            for j in range(DENSE_POINTS):
                s = cum[-1] * j / (DENSE_POINTS - 1)
                while leg < len(pts) - 2 and cum[leg + 1] < s:
                    leg += 1
                p, q = pts[leg], pts[leg + 1]
                t = min(1.0, (s - cum[leg]) / (cum[leg + 1] - cum[leg]))
                lat = p.lat + t * (q.lat - p.lat) + rng.gauss(0.0, JITTER_M) / m_per_deg
                lon = p.lon + t * (q.lon - p.lon) + rng.gauss(0.0, JITTER_M) / (
                    m_per_deg * math.cos(math.radians(p.lat))
                )
                coords.append(d.geo.Coordinate(lat, lon))
            routes.append(d.geo.Route(f"{prefix}{k:03d}", coords))
        return d.pools.RoutePool(routes=routes)

    def prepare(self, n_batches) -> None:
        self.fleet_path = self.workdir / "fleet.geojson"
        self.batch_paths = [self.workdir / f"batch-{k}.geojson" for k in range(n_batches)]
        self.fleet = self._read(self.fleet_path)
        self.batches = [self._read(p) for p in self.batch_paths]
        self.samples = []
        for k, batch in enumerate(self.batches):
            picks = [(self.rng.choice(sorted(self.fleet)), self.rng.choice(sorted(batch))) for _ in range(3)]
            self.samples.append(
                {(a, r): self._ref_score(self.fleet[a], batch[r]) for a, r in picks}
            )

    def _read(self, path: Path) -> dict:
        """Routes of a pool file, parsed here rather than by dlcss.pools."""
        geo = self.dlcss.geo
        doc = json.loads(path.read_text(encoding="utf-8"))
        routes = {}
        for feat in doc["features"]:
            pts = [geo.Coordinate(float(lat), float(lon)) for lon, lat in feat["geometry"]["coordinates"]]
            routes[feat["properties"]["id"]] = geo.Route(feat["properties"]["id"], pts)
        return routes

    def round_keys(self):
        return list(range(len(self.batch_paths)))

    def pairs(self, key) -> int:
        return len(self.fleet) * len(self.batches[key])

    def inputs(self, key):
        out = self.workdir / f"decisions-{key}.jsonl"
        out.unlink(missing_ok=True)  # so a stale file cannot pass the check
        return [
            "match", "--pool", str(self.fleet_path), "--requests", str(self.batch_paths[key]),
            "--threshold", repr(MATCH_THRESHOLD_M), "--out", str(out),
        ]

    def run(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.dlcss.cli.main(argv)

    def check(self, key, argv, rc) -> str | None:
        if rc != 0:
            return f"dlcss match exited {rc}"
        lines = Path(argv[-1]).read_text(encoding="utf-8").splitlines()
        rows = [json.loads(line) for line in lines]
        want = [(a, r) for a in sorted(self.fleet) for r in sorted(self.batches[key])]
        if [(row["a_id"], row["r_id"]) for row in rows] != want:
            return "decisions are not every input pair once in (a_id, r_id) order"
        for row in rows:
            sm = row["sm"]
            if row["threshold_m"] != MATCH_THRESHOLD_M:
                return f"threshold_m {row['threshold_m']} in output"
            if sm is not None and not sm >= 0.0:
                return f"({row['a_id']}, {row['r_id']}): sm {sm} is negative"
            if row["accepted"] != (sm is not None and sm <= MATCH_THRESHOLD_M):
                return f"({row['a_id']}, {row['r_id']}): accepted={row['accepted']} with sm {sm}"
        got = {(row["a_id"], row["r_id"]): row["sm"] for row in rows}
        for (a, r), (ref_sm, _) in self.samples[key].items():
            expected = ref_sm if math.isfinite(ref_sm) else None
            if got[(a, r)] != expected:
                return f"({a}, {r}): sm {got[(a, r)]!r} differs from the reference {expected!r}"
        (a, r), (_, segs) = next(iter(self.samples[key].items()))
        return self._program_sample_problem(self.fleet[a], self.batches[key][r], segs)


class MeetingRescue(Workload):
    """One evaluate_meeting_points call on a directly rejected, compatible pair."""

    name = "meeting_rescue"

    def setup(self):
        d = self.dlcss
        rng = random.Random(f"{self.name}:{self.seed}")
        g = d.routing.GridGraph.build()
        pool = d.pools.generate_pool(g, self.size["rescue_pool"], rng.randrange(2**31))
        for node in range(g.num_nodes):  # a long-lived dispatcher's warm memo
            g.source_distances(node)
        return g, pool

    def prepare(self, state) -> None:
        d = self.dlcss
        self.g, pool = state
        self.oracle = oracle = ind.GridOracle(self.g)
        routes = sorted(pool.routes, key=lambda x: x.id)
        ends = {r.id: oracle.route_ends(r) for r in routes}
        cols, rows = self.g.cols, self.g.rows

        def block(v):
            return divmod(v, cols)

        def inner(v):  # every node within RESCUE_RADIUS blocks exists
            r, c = block(v)
            return min(r, c, rows - 1 - r, cols - 1 - c) >= RESCUE_RADIUS

        def blocks_apart(u, v):
            (ru, cu), (rv, cv) = block(u), block(v)
            return abs(ru - rv) + abs(cu - cv)

        # Compatible by a margin, NO_OVERLAP by the reference scorer (the pairs
        # no threshold accepts directly), and a request whose start has the
        # full diamond of candidates with its destination outside it, so every
        # operation tries the same number of meeting points.
        chosen = []
        for a in routes:
            for r in routes:
                r0, r1 = ends[r.id][0], ends[r.id][1]
                if (
                    a.id == r.id
                    or not inner(r0)
                    or blocks_apart(r0, r1) <= RESCUE_RADIUS
                    or oracle.detour_fraction(ends[a.id], ends[r.id]) > ind.DETOUR_LIMIT - 1e-6
                ):
                    continue
                if math.isinf(self._ref_score(a, r)[0]):
                    chosen.append((a, r))
        self.rng.shuffle(chosen)
        chosen = chosen[: self.size["rescue_pairs"]]
        if not chosen:
            raise RuntimeError("no rejected compatible pair in the pool")
        self.cases = []
        for a, r in chosen:
            start, dest = ends[r.id][0], ends[r.id][1]
            nodes = [v for v in range(self.g.num_nodes) if blocks_apart(v, start) <= RESCUE_RADIUS]
            candidates = [d.meeting_points.MeetingPoint(f"n{v:03d}", self.g.node(v)) for v in nodes]
            self.cases.append({"a": a, "r": r, "dest": dest, "candidates": candidates, "expect": None})

    def round_keys(self):
        return list(range(len(self.cases)))

    def pairs(self, key) -> int:
        return 1

    def inputs(self, key):
        return self.cases[key]

    def _provider(self, origin, destination):
        return self.dlcss.routing.shortest_route(self.g, origin, destination)

    def run(self, case):
        return self.dlcss.meeting_points.evaluate_meeting_points(
            case["a"], case["r"], case["candidates"], self._provider,
            threshold_m=RESCUE_THRESHOLD_M,
        )

    def _expect(self, case):
        """The reference-scored best candidate, or a problem with a candidate route."""
        a, oracle = case["a"], self.oracle
        scored = []
        for m in case["candidates"]:
            route = self.dlcss.routing.shortest_route(self.g, m.location, case["r"].points[-1])
            start = oracle.snap(m.location.lat, m.location.lon)
            problem = oracle.path_problem(route.points, start, case["dest"])
            if problem:
                return f"route from {m.id}: {problem}"
            sm, segs = self._ref_score(a, route)
            scored.append((sm, m.id, route, segs, start))
        best = min(scored, key=lambda s: (s[0], s[1]))
        if not (math.isfinite(best[0]) and best[0] <= RESCUE_THRESHOLD_M):
            return {"match": None}
        problem = self._program_sample_problem(a, best[2], best[3])
        if problem:
            return problem
        return {"match": best}

    def check(self, key, case, out) -> str | None:
        if case["expect"] is None:
            case["expect"] = self._expect(case)
        exp = case["expect"]
        if isinstance(exp, str):
            return exp
        if exp["match"] is None:
            return None if out is None else f"rescued via {out.meeting_point_id}, expected none"
        sm, mid, route, _, start = exp["match"]
        if out is None:
            return f"no rescue, expected {mid} at sm {sm!r}"
        if (out.meeting_point_id, out.sm) != (mid, sm):
            return f"rescued via {out.meeting_point_id} at {out.sm!r}, expected {mid} at {sm!r}"
        if out.rerouted_request.points != route.points:
            return "rerouted request differs from the candidate's shortest route"
        return self.oracle.path_problem(out.rerouted_request.points, start, case["dest"])


WORKLOADS = {w.name: w for w in (EvalPool, MatchDense, MeetingRescue)}
