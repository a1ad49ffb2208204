"""Grouped stratified cross-validation, metrics, seed ensembling, and the
experiment driver.

Folds partition acquisitions with all of a subject's scans kept together and
subject-level class counts balanced greedily. Accuracy thresholds positive
probabilities at 0.5 (ties -> class 0); AUC is the exact pairwise
Mann-Whitney statistic, ties counted half. Each fold picks its plan once:
the sorted labelled rows outside it, which train, and inside it, which are
scored. The feature selector is refit on the training rows in every fold,
and no held-out label reaches a network. A graph network rebuilds the graph
in every fold, with the kernel width estimated from training-node pairs
only. The MLP baseline is the same network at Chebyshev order 0, which
reads no graph, so none is built for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace, asdict
from typing import NamedTuple

import csv
import json
import numpy as np

from .baselines import BaselineConfig, ridge_classify
from .dataset import UNKNOWN_LABEL, AcquisitionRecord, FeatureMatrix, labels_array
from .dataset import _reuse_freed_memory, fork_map
from .errors import ContractError, IntegrityError, ParameterError, check_at_least
from .featsel import FeatureSelector, SelectorConfig
from .gcn import GcnConfig
from . import gcn as gcn_mod
from .popgraph import GraphSpec, build_graph


def stratified_group_kfold(records: list[AcquisitionRecord], k: int, seed: int = 0) -> np.ndarray:
    """Fold index per acquisition, keeping subjects whole and balancing classes.

    Groups are processed largest first (ties shuffled by seed); each goes to
    the fold with the fewest subjects of its class, breaking ties by fewer
    acquisitions, then lower fold index. Unlabeled subjects balance on
    acquisition count alone.
    """
    check_at_least("k", k, 2)
    subject_order: list[str] = []
    by_subject: dict[str, list[int]] = {}
    for i, rec in enumerate(records):
        if rec.subject_id not in by_subject:
            by_subject[rec.subject_id] = []
            subject_order.append(rec.subject_id)
        by_subject[rec.subject_id].append(i)
    if len(subject_order) < k:
        raise ParameterError(
            f"need at least k={k} distinct subjects, got {len(subject_order)}"
        )

    groups = []
    for subject in subject_order:
        idx = by_subject[subject]
        group_labels = {records[i].label for i in idx}
        if len(group_labels) > 1:
            raise IntegrityError(f"subject {subject!r} has inconsistent labels")
        groups.append((idx, group_labels.pop()))

    rng = np.random.default_rng(seed)
    tie_order = rng.permutation(len(groups))
    order = sorted(range(len(groups)), key=lambda g: (-len(groups[g][0]), tie_order[g]))

    class_counts = np.zeros((k, 2), dtype=np.int64)  # subject-level
    acq_counts = np.zeros(k, dtype=np.int64)
    folds = np.empty(len(records), dtype=np.int64)
    for g in order:
        idx, label = groups[g]
        if label in (0, 1):
            best = min(range(k), key=lambda f: (class_counts[f, label], acq_counts[f], f))
            class_counts[best, label] += 1
        else:
            best = min(range(k), key=lambda f: (acq_counts[f], f))
        acq_counts[best] += len(idx)
        folds[idx] = best
    return folds


class Metrics(NamedTuple):
    accuracy: float
    auc: float | None


def _fractional_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x, each run of equal values given its mid-rank.

    A run at sorted positions i..j ranks 0.5 * (i + j) + 1, which is exact
    in float64. Values that compare unequal (each NaN) rank alone.
    """
    order = np.argsort(x, kind="mergesort")
    sx = x[order]
    starts = np.flatnonzero(np.concatenate(([True], sx[1:] != sx[:-1])))
    ends = np.append(starts[1:], len(x)) - 1
    ranks = np.empty(len(x))
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def compute_metrics(probs, labels) -> Metrics:
    """Accuracy at threshold 0.5 (ties -> class 0) and exact Mann-Whitney AUC.

    The rank formulation with tie-averaged ranks equals the pairwise count
    P(score+ > score-) + 0.5 P(equal). AUC is None when only one class is
    present.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if probs.shape != labels.shape:
        raise ContractError("probs and labels must have equal length")
    if np.any((labels != 0) & (labels != 1)):
        raise ContractError("labels must be 0 or 1")
    if not np.all((probs >= 0) & (probs <= 1)):  # NaN fails both comparisons
        raise ContractError("probabilities must be finite and lie in [0, 1]")
    preds = (probs > 0.5).astype(np.int64)
    accuracy = float(np.mean(preds == labels))
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return Metrics(accuracy=accuracy, auc=None)
    ranks = _fractional_ranks(probs)
    auc = (ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return Metrics(accuracy=accuracy, auc=float(auc))


class EnsembleResult(NamedTuple):
    labels: np.ndarray
    accuracy: float
    auc: float | None


def ensemble_seeds(pred_labels, probs, true_labels) -> EnsembleResult:
    """Majority vote of per-seed predictions over the same nodes.

    Each node takes its modal label; an even split is resolved by the mean
    positive probability against 0.5 (exactly 0.5 -> class 0). Accuracy is
    that of the ensembled labels, AUC that of the mean probabilities.
    """
    pred_labels = np.asarray(pred_labels, dtype=np.int64)
    probs = np.asarray(probs, dtype=np.float64)
    true_labels = np.asarray(true_labels, dtype=np.int64)
    if pred_labels.ndim != 2 or pred_labels.shape != probs.shape:
        raise ContractError("need aligned (seeds, nodes) prediction arrays")
    if pred_labels.shape[0] < 1:
        raise ContractError("need at least one seed")

    mean_probs = probs.mean(axis=0)
    votes_one = (pred_labels == 1).sum(axis=0)
    votes_zero = pred_labels.shape[0] - votes_one
    labels = np.where(
        votes_one > votes_zero, 1, np.where(votes_one < votes_zero, 0, mean_probs > 0.5)
    ).astype(np.int64)
    metrics = compute_metrics(mean_probs, true_labels)
    accuracy = float(np.mean(labels == true_labels))
    return EnsembleResult(labels=labels, accuracy=accuracy, auc=metrics.auc)


@dataclass(frozen=True)
class ExperimentDescriptor:
    """Everything run_experiment needs; configs echo into the report.

    Checked when constructed (and by replace), the bounds by the errors
    checks. Features and records may both be None, to check the settings
    before the data are loaded; once given, they must be aligned. A network
    that builds a correlation-kernel graph needs at least 2 features: a
    fitted selector's target_c, or else the data's columns once given. The
    data must also hold at least target_c columns for an rfe or pca
    selector, and for pca at least target_c training rows in every fold of
    the run's assignment; more than k acquisitions for a network's knn
    graph; and at least `folds` distinct subjects. Each is checked with the
    message of the check that would fail in the run."""

    features: FeatureMatrix | None
    records: list[AcquisitionRecord] | None
    model: str = "gcn"  # gcn | ridge | mlp
    graph_spec: GraphSpec = field(default_factory=GraphSpec)
    gcn_config: GcnConfig = field(default_factory=GcnConfig)
    baseline_config: BaselineConfig = field(default_factory=BaselineConfig)
    selector_config: SelectorConfig = field(default_factory=SelectorConfig)
    folds: int = 10
    seeds: tuple[int, ...] = tuple(range(10))
    fold_seed: int = 0
    sigma_pairs: str = "train"  # 'train' (leakage-safe) or 'all' (strict replication)
    name: str = "experiment"

    def __post_init__(self):
        if self.model not in ("gcn", "ridge", "mlp"):
            raise ParameterError(f"unknown model {self.model!r}")
        check_at_least("folds", self.folds, 2)
        if not self.seeds:
            raise ParameterError("need at least one seed")
        repeated = sorted({s for s in self.seeds if self.seeds.count(s) > 1})
        if repeated:
            raise ParameterError(f"seeds must be distinct, repeated: {repeated}")
        if min(self.seeds) < 0:
            raise ParameterError(f"seeds must be >= 0, got {list(self.seeds)}")
        check_at_least("fold_seed", self.fold_seed, 0)
        if self.sigma_pairs not in ("train", "all"):
            raise ParameterError("sigma_pairs must be 'train' or 'all'")
        if "\r" in self.name or "\n" in self.name:  # it would split a results.csv row
            raise ParameterError(f"name must be one line, got {self.name!r}")
        selector = self.selector_config
        builds_graph = self.model == "gcn" and self.gcn_config.cheb_order > 0
        kernel = builds_graph and self.graph_spec.computes_kernel
        if kernel and selector.kind != "none" and selector.target_c < 2:
            raise ParameterError(
                f"target_c must be >= 2 for a correlation-kernel graph, got {selector.target_c}"
            )
        ids = None if self.records is None else [r.acquisition_id for r in self.records]
        if (None if self.features is None else self.features.ids) != ids:
            raise ContractError("features and records must be aligned")
        if self.features is None:
            return
        n_features, n = self.features.n_features, len(self.records)
        if kernel and selector.kind == "none" and n_features < 2:
            raise ParameterError(
                f"n_features must be >= 2 for a correlation-kernel graph, got {n_features}"
            )
        if builds_graph and self.graph_spec.strategy == "knn" and not self.graph_spec.k < n:
            raise ParameterError(f"k must satisfy 1 <= k < N={n}, got {self.graph_spec.k}")
        n_subjects = len({r.subject_id for r in self.records})
        if not self.folds <= n_subjects:
            raise ParameterError(
                f"need at least k={self.folds} distinct subjects, got {n_subjects}"
            )
        limit = n_features
        if selector.kind == "pca":
            # pca_fit also bounds target_c by the fold's training rows.
            folds = stratified_group_kfold(self.records, self.folds, self.fold_seed)
            labeled = labels_array(self.records) != UNKNOWN_LABEL
            training = [np.count_nonzero(labeled & (folds != f)) for f in range(self.folds)]
            limit = min(limit, *training)
        if selector.kind in ("rfe", "pca") and not selector.target_c <= limit:
            raise ParameterError(f"target_c must be in [1, {limit}], got {selector.target_c}")


@dataclass
class FoldSeedRecord:
    fold: int
    seed: int
    test_indices: list[int]
    true_labels: list[int]
    pred_labels: list[int]
    probs: list[float]
    accuracy: float
    auc: float | None
    sigma: float | None = None


@dataclass
class ExperimentReport:
    name: str
    config: dict
    records: list[FoldSeedRecord]
    summary: dict

    CSV_HEADER = ("experiment", "fold", "seed", "accuracy", "auc")

    def compute_summary(self) -> dict:
        """Recompute all aggregates from the per-(fold, seed) records."""
        seeds = sorted({r.seed for r in self.records})
        folds = sorted({r.fold for r in self.records})
        by_key = {(r.fold, r.seed): r for r in self.records}
        per_seed = {}
        for s in seeds:
            accs = [by_key[(f, s)].accuracy for f in folds]
            aucs = [by_key[(f, s)].auc for f in folds]
            per_seed[s] = {
                "mean_accuracy": float(np.mean(accs)),
                "std_accuracy": float(np.std(accs)),
                "mean_auc": None if any(a is None for a in aucs) else float(np.mean(aucs)),
            }
        seed_avg_acc = float(np.mean([per_seed[s]["mean_accuracy"] for s in seeds]))
        seed_aucs = [per_seed[s]["mean_auc"] for s in seeds]
        seed_avg_auc = None if any(a is None for a in seed_aucs) else float(np.mean(seed_aucs))

        # Majority-vote ensemble across seeds, fold by fold.
        ens_accs, ens_aucs = [], []
        for f in folds:
            recs = [by_key[(f, s)] for s in seeds]
            result = ensemble_seeds(
                np.array([r.pred_labels for r in recs]),
                np.array([r.probs for r in recs]),
                np.array(recs[0].true_labels),
            )
            ens_accs.append(result.accuracy)
            ens_aucs.append(result.auc)
        return {
            "per_seed": {str(s): per_seed[s] for s in seeds},
            "seed_averaged": {"accuracy": seed_avg_acc, "auc": seed_avg_auc},
            "ensembled": {
                "accuracy": float(np.mean(ens_accs)),
                "auc": None if any(a is None for a in ens_aucs) else float(np.mean(ens_aucs)),
            },
        }

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "config": self.config,
            "summary": self.summary,
            "records": [asdict(r) for r in self.records],
        }
        return json.dumps(payload, sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        payload = json.loads(text)
        return cls(
            name=payload["name"],
            config=payload["config"],
            summary=payload["summary"],
            records=[FoldSeedRecord(**r) for r in payload["records"]],
        )

    def csv_rows(self) -> list[list]:
        """One row of CSV_HEADER cells per record; an AUC of None is an empty cell."""
        return [
            [self.name, r.fold, r.seed, repr(r.accuracy), "" if r.auc is None else repr(r.auc)]
            for r in self.records
        ]

    def write_csv(self, path):
        """Plot-ready CSV: CSV_HEADER, then csv_rows()."""
        write_results_csv(path, self.csv_rows())

    def summary_table(self) -> str:
        lines = [f"experiment: {self.name}"]
        # A report read back from JSON holds its seeds in string order.
        for s, stats in sorted(self.summary["per_seed"].items(), key=lambda item: int(item[0])):
            auc = stats["mean_auc"]
            auc_str = "n/a" if auc is None else f"{auc:.4f}"
            lines.append(
                f"  seed {s}: accuracy {stats['mean_accuracy']:.4f}"
                f" +/- {stats['std_accuracy']:.4f}, auc {auc_str}"
            )
        sa = self.summary["seed_averaged"]
        en = self.summary["ensembled"]
        sa_auc = "n/a" if sa["auc"] is None else f"{sa['auc']:.4f}"
        en_auc = "n/a" if en["auc"] is None else f"{en['auc']:.4f}"
        lines.append(f"  seed-averaged: accuracy {sa['accuracy']:.4f}, auc {sa_auc}")
        lines.append(f"  majority-vote ensemble: accuracy {en['accuracy']:.4f}, auc {en_auc}")
        return "\n".join(lines)


def write_results_csv(path, rows):
    """Write ExperimentReport.CSV_HEADER, then `rows`, one line each; csv
    quotes a cell that holds a comma, a '"' or a '\n'."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ExperimentReport.CSV_HEADER)
        writer.writerows(rows)


def _config_echo(desc: ExperimentDescriptor) -> dict:
    return {
        "name": desc.name,
        "model": desc.model,
        "graph": {**asdict(desc.graph_spec)},
        "gcn": asdict(desc.gcn_config),
        "baseline": asdict(desc.baseline_config),
        "selector": asdict(desc.selector_config),
        "folds": desc.folds,
        "seeds": list(desc.seeds),
        "fold_seed": desc.fold_seed,
        "sigma_pairs": desc.sigma_pairs,
        "n_acquisitions": desc.features.n_acquisitions,
        "n_features": desc.features.n_features,
    }


def _run_fold(desc: ExperimentDescriptor, folds: np.ndarray, fold: int):
    """One FoldSeedRecord per seed for the held-out fold `fold`.

    The fold's plan is two sorted index arrays, picked once: train_rows, the
    labelled rows outside the fold, and test_rows, the labelled rows inside
    it. Every step reads rows through them: the selector fits on train_rows,
    the kernel width comes from their pairs, ridge fits on them and scores
    test_rows once, for every seed. Otherwise one network trains per seed on
    train_rows and their labels alone, and predicts test_rows: the GcnConfig,
    or for the MLP baseline that config at cheb_order 0 for mlp_epochs
    epochs. A network of cheb_order > 0 reads the fold's graph operator,
    built once for every seed; the graph is dropped once the operator is
    built, and each seed's model once it has predicted. At order 0 no graph,
    sigma or operator is built.
    """
    labels = labels_array(desc.records)
    labeled = labels != UNKNOWN_LABEL
    in_fold = folds == fold
    train_rows = np.flatnonzero(labeled & ~in_fold)
    test_rows = np.flatnonzero(labeled & in_fold)
    if len(train_rows) == 0 or len(test_rows) == 0:
        raise IntegrityError(f"fold {fold} leaves no training or no test nodes")
    y_train, y_test = labels[train_rows], labels[test_rows]

    selector = FeatureSelector(desc.selector_config)
    selector.fit(desc.features.values, y_train, rows=train_rows)
    x_red = selector.transform(desc.features.values)

    def record(seed, preds, pos, sigma=None) -> FoldSeedRecord:
        metrics = compute_metrics(pos, y_test)
        return FoldSeedRecord(
            fold=fold,
            seed=seed,
            test_indices=test_rows.tolist(),
            true_labels=y_test.tolist(),
            pred_labels=preds.tolist(),
            probs=pos.tolist(),
            accuracy=metrics.accuracy,
            auc=metrics.auc,
            sigma=sigma,
        )

    if desc.model == "ridge":
        preds, probs = ridge_classify(
            x_red[train_rows], y_train, x_red[test_rows], desc.baseline_config.ridge_alpha
        )
        # Deterministic: identical across seeds.
        return [record(seed, preds, probs) for seed in desc.seeds]

    network = desc.gcn_config
    if desc.model == "mlp":
        network = replace(network, cheb_order=0, epochs=desc.baseline_config.mlp_epochs)
    scaled, sigma = None, None
    if network.cheb_order > 0:
        spec = desc.graph_spec
        sigma_rows = train_rows if desc.sigma_pairs == "train" else None
        reduced = FeatureMatrix(ids=list(desc.features.ids), values=x_red)
        graph = build_graph(reduced, desc.records, spec, sigma_rows)
        # Records carry sigma only where it was estimated, not where it was given.
        sigma = graph.provenance.get("sigma") if spec.sigma is None else None
        scaled = gcn_mod.scaled_operator(graph)
        del graph, reduced  # the seeds read the operator alone

    records = []
    for seed in desc.seeds:
        model, _ = gcn_mod.train(replace(network, seed=seed), scaled, x_red, y_train, train_rows)
        probs, preds = gcn_mod.predict(model, scaled, x_red, test_rows)
        del model  # not alive while the next seed trains
        records.append(record(seed, preds, probs[:, 1], sigma))
    return records


def run_experiment(desc: ExperimentDescriptor, jobs: int = 1, record_sink=None) -> ExperimentReport:
    """Cross-validated experiment over folds x seeds.

    Per fold (_run_fold): pick the fold plan, the training and the scored
    rows; fit the selector on the training rows; for a network of
    cheb_order > 0, build the graph over all nodes with build_graph, whose
    kernel width, if estimated, comes from training-node pairs (all pairs under
    sigma_pairs='all'), and its scaled operator once; train every seed on the
    training rows and their labels, on that operator or, at order 0 (the MLP
    baseline), on the features alone; predict the scored rows. jobs > 1 runs
    folds through fork_map, on min(jobs, folds) forked processes (one malloc
    arena from then on), with the same records: each task carries its fold
    index, and the processes inherit the descriptor and the fold assignment. A
    daemonic caller, or no `fork`, runs them in this process. jobs < 1 raises
    ParameterError. record_sink, when given, is called with each
    FoldSeedRecord as its fold finishes, so partial results survive an abort.
    Under glibc it first raises the process's allocator thresholds
    (_reuse_freed_memory).

    The same descriptor gives a byte-identical report only under the same
    BLAS thread count. Every BLAS product may sum in an order that depends
    on it, the correlation kernel's Gram product and the network's layer
    products alike (an (871 x 2000) @ (2000 x 64) product differs at 1 and 2
    OpenBLAS threads), and training amplifies those last bits.
    """
    check_at_least("jobs", jobs, 1)
    _reuse_freed_memory()
    folds = stratified_group_kfold(desc.records, desc.folds, desc.fold_seed)
    all_records: list[FoldSeedRecord] = []
    tasks = [(fold,) for fold in range(desc.folds)]
    for fold_records in fork_map(_run_fold, tasks, jobs, shared=(desc, folds)):
        all_records.extend(fold_records)
        if record_sink is not None:
            for rec in fold_records:
                record_sink(rec)
    all_records.sort(key=lambda r: (r.fold, r.seed))
    report = ExperimentReport(
        name=desc.name, config=_config_echo(desc), records=all_records, summary={}
    )
    report.summary = report.compute_summary()
    return report
