"""Generate a synthetic route pool, calibrate a threshold, evaluate it.

Routes are shortest paths between random nodes of a street grid. The
detour oracle labels every ordered pair by how far the vehicle would have
to go out of its way to serve the request; the evaluation then compares
the threshold decision against those labels pair by pair.
"""

from dlcss import GridGraph, generate_pool
from dlcss.evaluation import calibrate_threshold, run_eval


def main():
    g = GridGraph.build(rows=12, cols=12, seed=0)
    pool = generate_pool(g, n=40, seed=7)
    threshold = calibrate_threshold(pool, g)
    report = run_eval(pool, g, threshold)

    accepted = report.true_positives + report.false_positives
    rejected = report.true_negatives + report.false_negatives
    print(f"pool: {len(pool)} routes, {report.n_pairs} ordered pairs")
    print(f"calibrated threshold: {threshold:.1f} m")
    print(f"accepted: {accepted:4d}  of which {report.true_positives} are compatible rides")
    print(f"rejected: {rejected:4d}  of which {report.false_negatives} were compatible (missed)")
    print(f"rejection rate: {report.rejection_rate:.3f}")
    print(f"precision among accepted: {report.tp_rate_among_accepted:.3f}")
    print(f"scoring {report.runtime_ms['scoring_ms']:.0f} ms,"
          f" judging {report.runtime_ms['judging_ms']:.0f} ms,"
          f" oracle labeling {report.runtime_ms['labeling_ms']:.0f} ms")


if __name__ == "__main__":
    main()
