"""Benchmark of dlcss: pool evaluation, dense matching, meeting-point rescue.

Run from the root of a checkout:

    python3 bench/run.py --workload eval_pool --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

One run sets up (several times; ``setup_s`` is the median), discards one
warm-up operation, then runs whole rounds of the same operations until the
timed operations add up to ``--seconds``. Every output is checked outside
the timed region; an operation whose output fails a check counts as failed.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A traced run writes
its spans to ``.bench/trace-<workload>-seed<seed>.jsonl``.

The program is imported from ``src/`` of this checkout, never from an
installed copy; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import os

# One thread everywhere, before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench"
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import dlcss, dlcss.cli; print(time.perf_counter() - t)"
)

END_TO_END = {"setup_s": "s", "pairs_per_s": "pairs/s", "op_ms_p50": "ms", "peak_rss_mb": "MiB"}

# Per-layer metrics: (name, unit, source). Sources are ("span", name, field)
# summed over the timed operations, ("count", key) likewise, ("setup", span,
# field) from the one traced set-up, ("ratio", span, caller) calls made from
# spans named ``caller*`` per input pair, or ("trace", key) from the harness.
# "/op" units are per timed operation, so a count repeats exactly for a seed.
PER_LAYER = [
    ("geo.pairwise_distances_m.ms", "ms/op", ("span", "geo.pairwise_distances_m", "ms")),
    ("geo.cells", "count/op", ("count", "geo.cells")),
    ("geo.distance.calls", "count/op", ("span", "geo.distance", "calls")),
    ("geo.distance.ms", "ms/op", ("span", "geo.distance", "ms")),
    ("core.nearest_assignment.self_ms", "ms/op", ("span", "core.nearest_assignment", "self_ms")),
    ("core.select_segments.ms", "ms/op", ("span", "core.select_segments", "ms")),
    ("core.similarity_metric.ms", "ms/op", ("span", "core.similarity_metric", "ms")),
    ("core.compute_dlcss.calls", "count/op", ("span", "core.compute_dlcss", "calls")),
    ("core.compute_dlcss.self_ms", "ms/op", ("span", "core.compute_dlcss", "self_ms")),
    ("core.no_overlap", "count/op", ("count", "core.no_overlap")),
    ("matching.score_pair.calls", "count/op", ("span", "matching.score_pair", "calls")),
    ("matching.filter_pool.self_ms", "ms/op", ("span", "matching.filter_pool", "self_ms")),
    ("matching.accepted", "count/op", ("count", "matching.accepted")),
    ("routing.snap.calls", "count/op", ("span", "routing.snap", "calls")),
    ("routing.snap.ms", "ms/op", ("span", "routing.snap", "ms")),
    ("routing.snaps_per_pair", "ratio", ("ratio", "routing.snap", None)),
    ("routing.source_distances.calls", "count/op", ("span", "routing.source_distances", "calls")),
    ("routing.source_distances.misses", "count/op", ("count", "routing.source_distances.misses")),
    ("routing.source_distances.ms", "ms/op", ("span", "routing.source_distances", "ms")),
    ("routing.path_nodes.ms", "ms/op", ("span", "routing.path_nodes", "ms")),
    ("routing.shortest_route.self_ms", "ms/op", ("span", "routing.shortest_route", "self_ms")),
    ("routing.assess_shared_ride.calls", "count/op", ("span", "routing.assess_shared_ride", "calls")),
    ("routing.assess_shared_ride.self_ms", "ms/op", ("span", "routing.assess_shared_ride", "self_ms")),
    ("routing.graph_build.ms", "ms", ("setup", "routing.graph_build", "ms")),
    ("pools.read_geojson.ms", "ms/op", ("span", "pools.read_geojson", "ms")),
    ("pools.generate_pool.ms", "ms", ("setup", "pools.generate_pool", "ms")),
    ("pools.write_geojson.ms", "ms", ("setup", "pools.write_geojson", "ms")),
    ("setup.routing.source_distances.ms", "ms", ("setup", "routing.source_distances", "ms")),
    ("evaluation.calibrate_threshold.ms", "ms/op", ("span", "evaluation.calibrate_threshold", "ms")),
    ("evaluation.run_eval.self_ms", "ms/op", ("span", "evaluation.run_eval", "self_ms")),
    ("evaluation.score_calls_per_pair", "ratio", ("ratio", "matching.score_pair", "evaluation.")),
    ("evaluation.oracle_calls_per_pair", "ratio", ("ratio", "routing.assess_shared_ride", "evaluation.")),
    ("meeting_points.evaluate_meeting_points.self_ms", "ms/op",
     ("span", "meeting_points.evaluate_meeting_points", "self_ms")),
    ("meeting_points.trials", "count/op", ("count", "meeting_points.trials")),
    ("meeting_points.rescued", "count/op", ("count", "meeting_points.rescued")),
    ("cli.main.ms", "ms/op", ("span", "cli.main", "ms")),
    # Self time of the whole CLI layer: argument parsing and output formatting.
    ("cli.main.self_ms", "ms/op", ("span", "cli.", "self_ms")),
    ("trace.untraced_op_ms_p50", "ms", ("trace", "untraced")),
    ("trace.overhead_ms", "ms", ("trace", "overhead")),
]


class BenchError(Exception):
    """The benchmark cannot run in this checkout."""


def import_program():
    """dlcss from this checkout's src/, the reference scorer from its tests/."""
    if not (SRC / "dlcss" / "__init__.py").is_file():
        raise BenchError(f"no dlcss sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dlcss
    import dlcss.cli  # noqa: F401  (not imported by the package itself)

    if Path(dlcss.__file__).resolve().parent != (SRC / "dlcss").resolve():
        raise BenchError(f"dlcss imported from {dlcss.__file__}, not from {SRC}")
    import independent

    return dlcss, independent.load_reference(ROOT)


def import_seconds() -> float:
    """What a fresh interpreter pays to import dlcss (numpy included)."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def machine_probe() -> dict:
    """Fixed pure-Python and numpy loops, to tell machine drift from program change."""
    import numpy as np

    def py_loop():
        s = 0
        for i in range(200_000):
            s += i * i % 7
        return s

    x = np.arange(200_000, dtype=float)

    def np_loop():
        for _ in range(20):
            np.sqrt(x * x + 1.0).sum()

    out = {}
    for name, fn in (("py_loop_ms", py_loop), ("np_loop_ms", np_loop)):
        times = []
        for _ in range(7):
            t0 = time.perf_counter()
            fn()
            times.append((time.perf_counter() - t0) * 1e3)
        out[name] = statistics.median(times)
    return out


class Phase:
    """Tallies of one measured phase."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.pairs = 0
        self.pairs_attempted = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []


def measure(wl, keys, seconds: float, tracer=None) -> Phase:
    """Whole rounds of ``keys`` until the timed operations reach ``seconds``."""
    ph = Phase()
    busy = 0.0
    while True:
        gc.collect()
        for key in keys:
            args = wl.inputs(key)
            if tracer is not None:
                tracer.op = key
                tracer.recording = True
            t0 = time.perf_counter()
            try:
                out, err = wl.run(args), None
            except Exception as exc:  # a failed operation, counted and reported
                out, err = None, exc
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.recording = False
            busy += dt
            ph.attempted += 1
            ph.pairs_attempted += wl.pairs(key)
            if err is None:
                try:
                    problem = wl.check(key, args, out)
                except Exception as exc:
                    problem = f"check raised {exc!r}"
            else:
                problem = f"raised {err!r}"
            if problem:
                ph.failed += 1
                if len(ph.problems) < 5:
                    ph.problems.append(f"{wl.name} op {key}: {problem}")
            else:
                ph.times.append(dt)
                ph.pairs += wl.pairs(key)
        if busy >= seconds:
            return ph


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One benchmark run in this process; returns the result object."""
    from spans import Tracer
    from workloads import WORKLOADS

    dlcss, reference = import_program()
    workdir = OUT_DIR / f"work-{name}-{os.getpid()}"
    wl = WORKLOADS[name](dlcss, reference, seed, workdir, smoke)
    tracer = Tracer(dlcss) if trace else None
    gc_was_frozen = gc.get_freeze_count()
    try:
        imports = [] if trace else [import_seconds() for _ in range(SETUP_REPEATS)]
        if tracer is not None:
            tracer.install()
        setups, state = [], None
        for _ in range(1 if trace else SETUP_REPEATS):
            if tracer is not None:
                tracer.phase, tracer.op, tracer.recording = "setup", "setup", True
            wl.untimed_s = 0.0
            t0 = time.perf_counter()
            result = wl.setup()
            setups.append(time.perf_counter() - t0 - wl.untimed_s)
            if tracer is not None:
                tracer.recording = False
            state = result if state is None else state
        if tracer is not None:
            tracer.uninstall()
        wl.prepare(state)
        keys = wl.round_keys()
        probe = machine_probe()
        wl.run(wl.inputs(keys[0]))  # warm-up, discarded
        gc.collect()
        gc.freeze()

        if tracer is None:
            ph = measure(wl, keys, seconds)
            ops_s = sum(ph.times)
            metrics = {
                "setup_s": statistics.median(imports) + statistics.median(setups),
                "pairs_per_s": ph.pairs / ops_s if ops_s else 0.0,
                "op_ms_p50": statistics.median(ph.times) * 1e3 if ph.times else 0.0,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END
        else:
            plain = measure(wl, keys, 0.0)  # one untraced round
            tracer.install()
            tracer.phase = "ops"
            ph = measure(wl, keys, seconds, tracer=tracer)
            tracer.uninstall()
            metrics, units = layer_metrics(tracer, ph, plain)
            write_trace(tracer, name, seed, probe, metrics)
            ph.attempted += plain.attempted
            ph.failed += plain.failed
            ph.problems += plain.problems
    finally:
        if tracer is not None:
            tracer.uninstall()
        if gc.get_freeze_count() > gc_was_frozen:
            gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)

    return {
        "correct": ph.failed == 0,
        "attempted": ph.attempted,
        "failed": ph.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        "probe": probe,
        "problems": ph.problems,
    }


def layer_metrics(tracer, ph: Phase, plain: Phase):
    """Per-layer metrics of the traced phase ``ph``; ``plain`` is the untraced round."""
    n_ops = ph.attempted
    pairs = ph.pairs_attempted
    values, units = {}, {}
    for name, unit, source in PER_LAYER:
        kind = source[0]
        if kind == "span":
            value = tracer.total("ops", source[1], source[2]) / n_ops
        elif kind == "count":
            value = tracer.counter("ops", source[1]) / n_ops
        elif kind == "setup":
            value = tracer.total("setup", source[1], source[2])
        elif kind == "ratio":
            value = tracer.total("ops", source[1], "calls", caller=source[2]) / pairs
        else:
            traced = statistics.median(ph.times) * 1e3 if ph.times else 0.0
            untraced = statistics.median(plain.times) * 1e3 if plain.times else 0.0
            value = untraced if source[1] == "untraced" else traced - untraced
        values[name] = value
        units[name] = unit
    return values, units


def write_trace(tracer, name: str, seed: int, probe: dict, metrics: dict) -> Path:
    """Spans kept in memory during the run, written once at its end."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"trace-{name}-seed{seed}.jsonl"
    header = {
        "workload": name, "seed": seed, "probe": probe, "metrics": metrics,
        "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped,
        "span_fields": ["id", "parent", "name", "site", "op", "start_s", "end_s"],
    }
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return path


def run_seconds() -> float:
    """The run length that BENCHMARK.json declares, the default of ``--seconds``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return float(spec["run_seconds"])


def main(argv=None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=run_seconds())
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="every workload, small inputs, one round, untraced and traced")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required unless --smoke is given")
    try:
        if args.smoke:
            return smoke(args.seed)
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("probe: " + " ".join(f"{k}={v:.3f}" for k, v in res["probe"].items()))
    for line in res["problems"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def smoke(seed: int) -> int:
    """Every workload on small inputs for one round, untraced and traced."""
    from workloads import WORKLOADS

    ok = True
    for name in sorted(WORKLOADS):
        for trace in (False, True):
            res = run_workload(name, seed, 0.0, trace, smoke=True)
            ok &= res["correct"] and res["failed"] == 0
            print(f"{name} trace={int(trace)}: attempted={res['attempted']} "
                  f"failed={res['failed']} {'; '.join(res['problems'])}")
    print(json.dumps({"smoke_ok": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
