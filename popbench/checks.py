"""Output checks run on every experiment the benchmark makes.

Each check names the (fold, seed) records it fails; a check on the whole
report fails every record of it. Failed records count against the run's
`failed` total and `success_rate`; no check stops the run.
"""

from __future__ import annotations

import math
from collections import defaultdict


def check_report(report, desc, report_bytes: bytes, reference_bytes: bytes | None):
    """Return (set of failed (fold, seed) keys, list of problem strings).

    reference_bytes is the report.json text of the first experiment of the
    same workload and seed; every repeat must reproduce it byte for byte.
    """
    expected = {(f, s) for f in range(desc.folds) for s in desc.seeds}
    labels = [r.label for r in desc.records]
    subjects = [r.subject_id for r in desc.records]
    labelled = {i for i, y in enumerate(labels) if y in (0, 1)}
    failed: set = set()
    problems: list[str] = []

    def fail(keys, message):
        failed.update(keys)
        problems.append(message)

    seen = defaultdict(int)
    for rec in report.records:
        seen[(rec.fold, rec.seed)] += 1
    missing = expected - set(seen)
    if missing:
        fail(missing, f"{len(missing)} (fold, seed) records missing")
    extra = {k for k, n in seen.items() if k not in expected or n > 1}
    if extra:
        fail(expected, f"unexpected or duplicated records {sorted(extra)[:5]}")

    for rec in report.records:
        key = (rec.fold, rec.seed)
        n = len(rec.test_indices)
        if not n == len(rec.true_labels) == len(rec.pred_labels) == len(rec.probs):
            fail({key}, f"record {key}: ragged test arrays")
            continue
        if not all(math.isfinite(p) and 0.0 <= p <= 1.0 for p in rec.probs):
            fail({key}, f"record {key}: probability not finite or outside [0, 1]")
            continue
        if any(not 0 <= i < len(labels) for i in rec.test_indices):
            fail({key}, f"record {key}: test index out of range")
            continue
        if rec.true_labels != [labels[i] for i in rec.test_indices]:
            fail({key}, f"record {key}: true labels differ from the cohort")
        if rec.pred_labels != [int(p > 0.5) for p in rec.probs]:
            fail({key}, f"record {key}: predicted labels disagree with probabilities")
        accuracy = sum(p == y for p, y in zip(rec.pred_labels, rec.true_labels)) / n if n else -1.0
        if not math.isclose(rec.accuracy, accuracy, rel_tol=0.0, abs_tol=1e-12):
            fail({key}, f"record {key}: accuracy {rec.accuracy} != recomputed {accuracy}")

    # Test folds partition the labelled nodes, for every seed, and no subject
    # has scans in two folds.
    for seed in desc.seeds:
        folds = [rec for rec in report.records if rec.seed == seed]
        tested = [i for rec in folds for i in rec.test_indices]
        if len(tested) != len(set(tested)) or set(tested) != labelled:
            fail(expected, f"seed {seed}: test folds do not partition the labelled nodes")
    subject_folds = defaultdict(set)
    for rec in report.records:
        for i in rec.test_indices:
            if 0 <= i < len(subjects):
                subject_folds[subjects[i]].add(rec.fold)
    spanning = sorted(s for s, folds in subject_folds.items() if len(folds) > 1)
    if spanning:
        fail(expected, f"{len(spanning)} subjects span folds, e.g. {spanning[0]}")

    if report.summary != report.compute_summary():
        fail(expected, "summary differs from compute_summary(records)")
    if reference_bytes is not None and report_bytes != reference_bytes:
        fail(expected, "report.json bytes differ from the first repeat")
    return failed, problems
