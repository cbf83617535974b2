"""Evaluation harness: score all pairs, label with the oracle, report rates.

The pipeline mirrors a filter-then-verify matcher study: the cheap
similarity metric decides accept/reject, the grid routing oracle provides
the ground-truth compatible/incompatible label, and the report collects the
confusion matrix, the rejection rate, and the precision among accepted
pairs.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import core, routing
from .errors import DomainError, ParseError, check_integer
from .matching import DEFAULT_THRESHOLD_M, _check_threshold
from .pools import RoutePool
from .routing import GridGraph

REPORT_FORMATS = ("json", "csv", "plot-data")

_REPORT_FIELDS = (
    "n_pairs",
    "threshold_m",
    "true_positives",
    "false_positives",
    "true_negatives",
    "false_negatives",
    "rejection_rate",
    "tp_rate_among_accepted",
)


class PairOutcome(NamedTuple):
    """One ordered (vehicle, request) pair: metric verdict vs ground truth.

    A named tuple: immutable, and cheap to build for a pool's ~10,000 pairs.
    """

    a_id: str
    r_id: str
    sm: float
    detour_fraction: float
    accepted: bool
    compatible: bool


@dataclass
class EvalReport:
    """Confusion matrix and rates for one evaluation run.

    ``runtime_ms`` and ``pairs`` are diagnostics: excluded from equality and
    from the serialized JSON so that reruns with identical inputs produce
    byte-identical reports.
    """

    n_pairs: int
    threshold_m: float
    true_positives: int
    false_positives: int
    true_negatives: int
    false_negatives: int
    rejection_rate: float
    tp_rate_among_accepted: float
    runtime_ms: dict = field(default_factory=dict, compare=False)
    pairs: list[PairOutcome] = field(default_factory=list, compare=False, repr=False)


def _pairs(members: np.ndarray) -> np.ndarray:
    """Mask of the ordered pairs (a != r) among ``members``."""
    mask = members[:, None] & members[None, :]
    np.fill_diagonal(mask, False)
    return mask


def _max_finite_sm(table: np.ndarray, mask: np.ndarray, default_m: float) -> float:
    """Largest finite sm of ``table`` where ``mask``, else ``default_m``."""
    scores = table[mask & np.isfinite(table)]
    return float(scores.max()) if scores.size else default_m


def _judge(routes, fractions: np.ndarray, table: np.ndarray, mask: np.ndarray, threshold_m: float):
    """PairOutcome of every pair in ``mask``, in (a_id, r_id) order, and their
    confusion counts as an array indexed by 2 * accepted + compatible.

    Built from flat row-major columns. ``sm <= threshold_m`` rejects
    NO_OVERLAP because every caller's threshold is finite.
    """
    ids = [r.id for r in routes]
    a_ids, r_ids = (map(ids.__getitem__, x.tolist()) for x in np.nonzero(mask))
    sm, frac = table[mask], fractions[mask]
    accepted, compatible = sm <= threshold_m, frac <= routing.DETOUR_LIMIT_FRACTION
    columns = (sm.tolist(), frac.tolist(), accepted.tolist(), compatible.tolist())
    # tuple.__new__ skips the named tuple's own __new__: ~1.5x faster per pool
    outcomes = list(map(tuple.__new__, repeat(PairOutcome), zip(a_ids, r_ids, *columns)))
    return outcomes, np.bincount(2 * accepted + compatible, minlength=4)


def calibrate_threshold(
    pool: RoutePool, g: GridGraph, default_m: float = DEFAULT_THRESHOLD_M
) -> float:
    """Smallest threshold with zero false negatives on this pool.

    That is the maximum finite sm over all oracle-compatible ordered pairs.
    Falls back to ``default_m`` when no pair is compatible (or every
    compatible pair has no overlap at all).
    """
    if len(pool.routes) < 2:
        raise DomainError("calibration needs a pool with at least 2 routes")
    _check_threshold(default_m, "default_m")
    routes = sorted(pool.routes, key=lambda r: r.id)
    compatible = routing.detour_fractions(g, routes) <= routing.DETOUR_LIMIT_FRACTION
    mask = compatible & _pairs(np.ones(len(routes), bool))
    return _max_finite_sm(core.score_table(routes, routes, mask), mask, default_m)


def run_eval(pool: RoutePool, g: GridGraph, threshold_m: float) -> EvalReport:
    """Score every ordered pair (a != r), label with the oracle, aggregate.

    A zero threshold is legal (it accepts only exact-zero scores); a
    duplicate-heavy pool calibrates to exactly that.
    """
    _check_threshold(threshold_m, "threshold_m")
    routes = sorted(pool.routes, key=lambda r: r.id)

    t0 = time.perf_counter()
    fractions = routing.detour_fractions(g, routes)
    t1 = time.perf_counter()
    mask = _pairs(np.ones(len(routes), bool))
    table = core.score_table(routes, routes, mask)
    t2 = time.perf_counter()
    outcomes, counts = _judge(routes, fractions, table, mask, threshold_m)
    runtime_ms = _runtime_ms(t0, t1, t2, time.perf_counter())
    return _aggregate(outcomes, counts, threshold_m, runtime_ms)


def _runtime_ms(t0: float, t1: float, t2: float, t3: float) -> dict:
    """``runtime_ms`` of labeling (t0-t1), scoring (t1-t2) and judging (t2-t3)."""
    return {
        "scoring_ms": (t2 - t1) * 1e3,
        "labeling_ms": (t1 - t0) * 1e3,
        "judging_ms": (t3 - t2) * 1e3,
        "total_ms": (t3 - t0) * 1e3,
    }


def _aggregate(
    outcomes: list[PairOutcome], counts: np.ndarray, threshold_m: float, runtime_ms: dict
) -> EvalReport:
    """The report of ``outcomes``, whose ``_judge`` counts are ``counts``."""
    tn, fn, fp, tp = counts.tolist()  # Python ints, as JSON and read_report need
    n = len(outcomes)
    # the fields in declaration order: n_pairs, threshold_m, the four counts, the two rates
    return EvalReport(n, threshold_m, tp, fp, tn, fn, *_rates(n, tp, fp, tn, fn),
                      runtime_ms=runtime_ms, pairs=outcomes)


def _rates(n: int, tp: int, fp: int, tn: int, fn: int) -> tuple[float, float]:
    """rejection_rate and tp_rate_among_accepted of a confusion matrix over n pairs."""
    return (tn + fn) / n if n else 0.0, tp / (tp + fp) if tp + fp else 0.0


def cross_validated_eval(
    pool: RoutePool,
    g: GridGraph,
    folds: int = 5,
    seed: int = 0,
    default_m: float = DEFAULT_THRESHOLD_M,
) -> EvalReport:
    """Generalization check: calibrate on k-1 folds, evaluate the held-out fold.

    Routes are partitioned into ``folds`` seeded random folds; each fold's
    ordered pairs are judged with the threshold calibrated on the remaining
    routes. Counts aggregate across folds; the reported threshold_m is the
    maximum fold threshold (the conservative choice a deployment would ship).
    The pool is labeled once, and every pair is scored at most once.
    """
    routes = sorted(pool.routes, key=lambda r: r.id)
    folds = check_integer(folds, "folds", 2, len(routes) // 2)
    _check_threshold(default_m, "default_m")
    order = list(range(len(routes)))
    random.Random(check_integer(seed, "seed")).shuffle(order)
    fold_of = np.empty(len(routes), dtype=int)
    fold_of[order] = np.arange(len(routes)) % folds

    t0 = time.perf_counter()
    fractions = routing.detour_fractions(g, routes)
    t1 = time.perf_counter()
    compatible = fractions <= routing.DETOUR_LIMIT_FRACTION
    held = [_pairs(fold_of == f) for f in range(folds)]
    train = [compatible & _pairs(fold_of != f) for f in range(folds)]
    table = core.score_table(routes, routes, np.logical_or.reduce(held + train))
    t2 = time.perf_counter()
    outcomes: list[PairOutcome] = []
    thresholds: list[float] = []
    counts = np.zeros(4, int)
    # folds <= n_routes/2 deals every fold at least 2 routes
    for held_pairs, train_pairs in zip(held, train):
        thresholds.append(_max_finite_sm(table, train_pairs, default_m))
        fold, fold_counts = _judge(routes, fractions, table, held_pairs, thresholds[-1])
        outcomes.extend(fold)
        counts += fold_counts
    runtime_ms = _runtime_ms(t0, t1, t2, time.perf_counter())
    return _aggregate(outcomes, counts, max(thresholds), runtime_ms)


def report_to_json_dict(report: EvalReport) -> dict:
    return {name: getattr(report, name) for name in _REPORT_FIELDS}


def emit_report(report: EvalReport, fmt: str, path: str | Path) -> None:
    """Write the report as ``json``, ``csv``, or ``plot-data``.

    plot-data emits one ``sm,detour_fraction`` row per evaluated pair for
    correlation scatter plots, no header (row count equals n_pairs).
    """
    if fmt not in REPORT_FORMATS:
        raise DomainError(f"unknown report format {fmt!r}, expected one of {REPORT_FORMATS}")
    path = Path(path)
    if fmt == "json":
        doc = report_to_json_dict(report)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    elif fmt == "csv":
        header = ",".join(_REPORT_FIELDS)
        row = ",".join(repr(getattr(report, name)) for name in _REPORT_FIELDS)
        path.write_text(header + "\n" + row + "\n", encoding="utf-8")
    else:
        lines = [f"{o.sm!r},{o.detour_fraction!r}" for o in report.pairs]
        path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def read_report(path: str | Path) -> EvalReport:
    """Read a JSON report from emit_report (no diagnostics); a bad field raises ParseError."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    try:
        kwargs = {name: doc[name] for name in _REPORT_FIELDS}
    except KeyError as exc:
        raise ParseError(f"{path}: missing report field {exc}") from exc
    for name, x in kwargs.items():  # JSON types: a bool is no number here
        if name == "threshold_m":
            ok = type(x) in (int, float) and 0.0 <= x < math.inf
        elif "_rate" in name:
            ok = type(x) in (int, float) and 0.0 <= x <= 1.0
        else:  # n_pairs and the four counts
            ok = type(x) is int and x >= 0
        if not ok:
            raise ParseError(f"{path}: invalid report field {name!r}: {x!r}")
    n, tp, fp, tn, fn, *rates = (kwargs[name] for name in _REPORT_FIELDS if name != "threshold_m")
    if tp + fp + tn + fn != n:
        raise ParseError(
            f"{path}: true_positives + false_positives + true_negatives + false_negatives"
            f" = {tp + fp + tn + fn}, but n_pairs = {n}"
        )
    for name, x, want in zip(_REPORT_FIELDS[-2:], rates, _rates(n, tp, fp, tn, fn)):
        if x != want:
            raise ParseError(f"{path}: {name} {x!r} contradicts the counts, which give {want!r}")
    return EvalReport(**kwargs)
