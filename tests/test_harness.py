import concurrent.futures
import dataclasses
import json
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from popgcn import dataset
from popgcn.baselines import BaselineConfig, mlp_classify
from popgcn.dataset import (
    UNKNOWN_LABEL,
    AcquisitionRecord,
    FeatureMatrix,
    SyntheticConfig,
    generate_synthetic,
    labels_array,
)
from popgcn.errors import ContractError, IntegrityError, ParameterError
from popgcn.featsel import SelectorConfig
from popgcn.gcn import GcnConfig
from popgcn.harness import (
    ExperimentDescriptor,
    ExperimentReport,
    _fractional_ranks,
    _run_fold,
    compute_metrics,
    ensemble_seeds,
    run_experiment,
    stratified_group_kfold,
)
from popgcn.popgraph import GraphSpec, correlation_distance_matrix
from oracles import fractional_ranks


def rec(i, subject, label, scans_suffix="t0", **kw):
    defaults = dict(site="siteA", sex="M", age=30.0, gene_flag=None)
    defaults.update(kw)
    return AcquisitionRecord(
        acquisition_id=f"{subject}_{scans_suffix}_{i}",
        subject_id=subject,
        label=label,
        **defaults,
    )


class TestStratifiedGroupKfold:
    def test_perfect_stratification_single_scans(self):
        records = [rec(i, f"s{i}", i % 2) for i in range(10)]
        fa = stratified_group_kfold(records, k=5, seed=0)
        for f in range(5):
            idx = fa.test_indices(f)
            assert len(idx) == 2
            assert sorted(records[i].label for i in idx) == [0, 1]

    def test_subject_scans_stay_together(self):
        records = [rec(i, "multi", 1, scans_suffix=f"t{i}") for i in range(4)]
        records += [rec(i, f"s{i}", i % 2) for i in range(10, 30)]
        fa = stratified_group_kfold(records, k=4, seed=1)
        multi_folds = {fa.folds[i] for i in range(4)}
        assert len(multi_folds) == 1

    @given(seed=st.integers(0, 100), k=st.integers(2, 6), n_subj=st.integers(6, 40))
    @settings(max_examples=30, deadline=None)
    def test_partition_property(self, seed, k, n_subj):
        if n_subj < k:
            return
        g = np.random.default_rng(seed)
        records = []
        for s in range(n_subj):
            label = int(g.integers(0, 2)) if g.random() > 0.1 else UNKNOWN_LABEL
            for t in range(int(g.integers(1, 4))):
                records.append(rec(t, f"s{s}", label, scans_suffix=f"t{t}"))
        fa = stratified_group_kfold(records, k=k, seed=seed)
        assert len(fa.folds) == len(records)
        assert set(fa.folds.tolist()) <= set(range(k))
        # Partition: each acquisition appears in exactly one fold.
        assert sum(len(fa.test_indices(f)) for f in range(k)) == len(records)
        # Grouping: all scans of a subject share a fold.
        by_subject = {}
        for i, r in enumerate(records):
            by_subject.setdefault(r.subject_id, set()).add(int(fa.folds[i]))
        assert all(len(v) == 1 for v in by_subject.values())

    def test_subject_level_stratification_within_one(self):
        records = [rec(i, f"s{i}", i % 2) for i in range(40)]
        fa = stratified_group_kfold(records, k=10, seed=3)
        for f in range(10):
            idx = fa.test_indices(f)
            labels = [records[i].label for i in idx]
            assert labels.count(0) == 2 and labels.count(1) == 2

    def test_deterministic_given_seed(self):
        records = [rec(i, f"s{i}", i % 2) for i in range(20)]
        a = stratified_group_kfold(records, k=4, seed=9)
        b = stratified_group_kfold(records, k=4, seed=9)
        np.testing.assert_array_equal(a.folds, b.folds)

    def test_too_few_subjects(self):
        records = [rec(i, f"s{i}", i % 2) for i in range(3)]
        with pytest.raises(ParameterError):
            stratified_group_kfold(records, k=4)

    def test_inconsistent_subject_labels_rejected(self):
        records = [rec(0, "s0", 0), rec(1, "s0", 1)] + [rec(i, f"s{i}", 0) for i in range(2, 8)]
        with pytest.raises(IntegrityError):
            stratified_group_kfold(records, k=2)


def brute_force_auc(probs, labels):
    """Pairwise Mann-Whitney count: P(p+ > p-) + 0.5 P(equal)."""
    pos = probs[labels == 1]
    neg = probs[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        return None
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestComputeMetrics:
    def test_perfect_separation(self):
        probs = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0])
        m = compute_metrics(probs, labels)
        assert m.accuracy == 1.0
        assert m.auc == 1.0

    def test_all_equal_probabilities(self):
        m = compute_metrics(np.full(6, 0.5), np.array([1, 0, 1, 0, 1, 0]))
        assert m.auc == 0.5
        assert m.accuracy == 0.5  # ties go to class 0

    def test_three_node_example(self):
        m = compute_metrics(np.array([0.9, 0.4, 0.6]), np.array([1, 0, 1]))
        assert m.accuracy == 1.0
        assert m.auc == brute_force_auc(np.array([0.9, 0.4, 0.6]), np.array([1, 0, 1])) == 1.0

    def test_threshold_tie_goes_to_class_zero(self):
        m = compute_metrics(np.array([0.5, 0.5001]), np.array([0, 1]))
        assert m.accuracy == 1.0
        m = compute_metrics(np.array([0.5]), np.array([1]))
        assert m.accuracy == 0.0

    def test_matches_brute_force_with_ties(self):
        g = np.random.default_rng(0)
        for trial in range(100):
            n = int(g.integers(4, 40))
            # A coarse grid forces plenty of exact ties.
            probs = g.choice(np.linspace(0, 1, 7), size=n)
            labels = g.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            expected = brute_force_auc(probs, labels)
            got = compute_metrics(probs, labels).auc
            assert abs(got - expected) < 1e-12

    @given(
        values=st.lists(
            st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 5e-324, np.nan]), max_size=60
        ),
        spread=st.lists(st.floats(0, 1), max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_ranks_match_run_by_run_oracle(self, values, spread):
        # Few distinct values make long runs of ties, signed zeros among them.
        x = np.array(values + spread, dtype=np.float64)
        ranks = _fractional_ranks(x)
        np.testing.assert_array_equal(ranks.view(np.int64), fractional_ranks(x).view(np.int64))

    def test_single_class_auc_absent(self):
        m = compute_metrics(np.array([0.2, 0.9]), np.array([1, 1]))
        assert m.auc is None

    def test_contract_checks(self):
        with pytest.raises(ContractError):
            compute_metrics(np.array([1.5]), np.array([1]))
        # NaN fails every comparison and sorts last: unchecked, it scored AUC 1.0.
        for bad in (-0.1, np.nan, np.inf, -np.inf):
            with pytest.raises(ContractError, match="finite"):
                compute_metrics(np.array([0.2, bad, 0.9]), np.array([0, 1, 1]))
        with pytest.raises(ContractError):
            compute_metrics(np.array([0.5]), np.array([2]))


class TestEnsembleSeeds:
    def test_unanimity(self):
        pred = np.array([[1, 0, 1], [1, 0, 1], [1, 0, 1]])
        probs = np.array([[0.9, 0.2, 0.8], [0.8, 0.3, 0.7], [0.7, 0.1, 0.9]])
        truth = np.array([1, 0, 0])
        vote = ensemble_seeds(pred, probs, truth)
        np.testing.assert_array_equal(vote.labels, [1, 0, 1])

    def test_two_to_one_vote(self):
        pred = np.array([[1], [1], [0]])
        probs = np.array([[0.9], [0.6], [0.2]])
        vote = ensemble_seeds(pred, probs, np.array([1]))
        assert vote.labels.tolist() == [1]

    def test_even_split_resolved_by_mean_probability(self):
        pred = np.array([[1], [0]])
        probs = np.array([[0.9], [0.5]])  # mean 0.7 -> class 1
        vote = ensemble_seeds(pred, probs, np.array([1]))
        assert vote.labels.tolist() == [1]

    def test_even_split_mean_probability_half_goes_to_zero(self):
        pred = np.array([[1], [0]])
        probs = np.array([[0.6], [0.4]])  # mean exactly 0.5 -> class 0
        vote = ensemble_seeds(pred, probs, np.array([1]))
        assert vote.labels.tolist() == [0]

    def test_single_seed_matches_single_run(self):
        g = np.random.default_rng(1)
        probs = g.random((1, 12))
        pred = (probs > 0.5).astype(int)
        truth = g.integers(0, 2, size=12)
        single = compute_metrics(probs[0], truth)
        result = ensemble_seeds(pred, probs, truth)
        assert result.accuracy == single.accuracy
        assert result.auc == single.auc
        np.testing.assert_array_equal(result.labels, pred[0])


def mean_pair_distance(x):
    """Mean correlation distance over distinct row pairs of x."""
    rho = correlation_distance_matrix(x)
    return rho[np.triu_indices(len(x), k=1)].mean()


def small_experiment(seed=0, model="gcn", seeds=(0, 1), folds=3):
    features, records = generate_synthetic(
        SyntheticConfig(n_subjects=36, scans_per_subject=(1, 2), n_features=8, seed=seed)
    )
    return ExperimentDescriptor(
        features=features,
        records=records,
        model=model,
        graph_spec=GraphSpec(),
        gcn_config=GcnConfig(epochs=15, hidden_width=6, dropout_rate=0.1),
        baseline_config=BaselineConfig(mlp_epochs=15),
        selector_config=SelectorConfig(kind="none"),
        folds=folds,
        seeds=seeds,
        name=f"test-{model}",
    )


class TestRunExperiment:
    def test_report_aggregates_recomputable(self):
        report = run_experiment(small_experiment())
        assert report.summary == report.compute_summary()

    def test_all_fold_seed_pairs_present(self):
        desc = small_experiment(seeds=(0, 1, 2), folds=3)
        report = run_experiment(desc)
        keys = {(r.fold, r.seed) for r in report.records}
        assert keys == {(f, s) for f in range(3) for s in (0, 1, 2)}

    def test_transduction_boundary(self):
        # Holding the fold assignment fixed, flipping the labels of the test
        # fold must leave every prediction bit-identical; only the metrics
        # computed against the flipped truth may move.
        desc = small_experiment(seeds=(0,))
        from popgcn.harness import stratified_group_kfold

        assignment = stratified_group_kfold(desc.records, desc.folds, desc.fold_seed)
        base = _run_fold(desc, assignment, 0)

        flipped_records = list(desc.records)
        for i in np.flatnonzero(assignment.folds == 0):
            old = flipped_records[i]
            flipped_records[i] = dataclasses.replace(old, label=1 - old.label)
        tampered = dataclasses.replace(desc, records=flipped_records)
        flipped = _run_fold(tampered, assignment, 0)

        for a, b in zip(base, flipped):
            assert a.pred_labels == b.pred_labels
            assert a.probs == b.probs

    @pytest.mark.parametrize("strategy", ["phenotypic", "knn", "all", "random"])
    def test_sigma_estimated_from_training_pairs_only(self, rng, strategy):
        desc = dataclasses.replace(
            small_experiment(seeds=(0,)), graph_spec=GraphSpec(strategy=strategy, k=5)
        )
        from popgcn.harness import stratified_group_kfold

        assignment = stratified_group_kfold(desc.records, desc.folds, desc.fold_seed)
        labels = labels_array(desc.records)
        train_rows = np.flatnonzero((assignment.folds != 0) & (labels != UNKNOWN_LABEL))
        expected = mean_pair_distance(desc.features.values[train_rows])
        base = _run_fold(desc, assignment, 0)
        assert base[0].sigma == pytest.approx(expected, abs=1e-12)

        # Trashing test-node features changes the graph but not sigma.
        noisy = desc.features.values.copy()
        test_rows = np.flatnonzero(assignment.folds == 0)
        noisy[test_rows] += rng.standard_normal(noisy[test_rows].shape) * 50
        tampered = dataclasses.replace(
            desc, features=FeatureMatrix(ids=list(desc.features.ids), values=noisy)
        )
        assert _run_fold(tampered, assignment, 0)[0].sigma == base[0].sigma

    def test_sigma_all_pairs_override(self):
        desc = dataclasses.replace(small_experiment(seeds=(0,)), sigma_pairs="all")
        from popgcn.harness import stratified_group_kfold

        assignment = stratified_group_kfold(desc.records, desc.folds, desc.fold_seed)
        expected = mean_pair_distance(desc.features.values)
        assert _run_fold(desc, assignment, 0)[0].sigma == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("strategy", ["phenotypic", "knn", "all", "random"])
    def test_fixed_sigma_is_not_recorded(self, strategy):
        spec = GraphSpec(strategy=strategy, k=5, sigma=0.7)
        desc = dataclasses.replace(small_experiment(seeds=(0, 1)), graph_spec=spec)
        from popgcn.harness import stratified_group_kfold

        assignment = stratified_group_kfold(desc.records, desc.folds, desc.fold_seed)
        assert [r.sigma for r in _run_fold(desc, assignment, 0)] == [None, None]

    def test_ridge_experiment_constant_across_seeds(self):
        report = run_experiment(small_experiment(model="ridge", seeds=(0, 1, 2)))
        by_fold = {}
        for r in report.records:
            by_fold.setdefault(r.fold, []).append(r)
        for recs in by_fold.values():
            assert len({tuple(r.probs) for r in recs}) == 1

    def test_mlp_experiment_runs(self):
        report = run_experiment(small_experiment(model="mlp", seeds=(0, 1)))
        assert 0.0 <= report.summary["seed_averaged"]["accuracy"] <= 1.0

    def test_mlp_runs_on_the_gcn_config_at_each_seed(self):
        desc = small_experiment(model="mlp", seeds=(0, 3))
        from popgcn.harness import stratified_group_kfold

        assignment = stratified_group_kfold(desc.records, desc.folds, desc.fold_seed)
        labels = labels_array(desc.records)
        train = assignment.folds != 0
        x = desc.features.values
        for rec_ in _run_fold(desc, assignment, 0):
            network = dataclasses.replace(desc.gcn_config, seed=rec_.seed)
            _, probs = mlp_classify(
                x[train], labels[train], x[~train], desc.baseline_config, network
            )
            assert rec_.probs == probs[:, 1].tolist()

    def test_repeated_seeds_rejected(self):
        desc = small_experiment(seeds=(0, 2, 0))
        with pytest.raises(ParameterError, match=r"repeated: \[0\]"):
            run_experiment(desc)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs, monkeypatch):
        def no_fold(*args):
            raise AssertionError("a fold ran")

        monkeypatch.setattr("popgcn.harness._run_fold", no_fold)
        with pytest.raises(ParameterError, match=rf"jobs must be >= 1, got {jobs}$"):
            run_experiment(small_experiment(), jobs=jobs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("graph_spec", GraphSpec(measures=())),
            ("gcn_config", GcnConfig(dropout_rate=1.5)),
            ("baseline_config", BaselineConfig(ridge_alpha=0.0)),
            ("selector_config", SelectorConfig(kind="rfe", target_c=0)),
            ("graph_spec", GraphSpec(sigma=0.0)),
        ],
    )
    def test_sub_configs_validated_before_any_fold(self, field, value, monkeypatch):
        # Even for a ridge run, which builds no graph and trains no GCN.
        desc = dataclasses.replace(small_experiment(model="ridge"), **{field: value})
        monkeypatch.setattr("popgcn.harness.stratified_group_kfold", None)
        with pytest.raises(ParameterError):
            run_experiment(desc)

    def test_parallel_jobs_match_sequential(self):
        desc = small_experiment(seeds=(0,), folds=3)
        sequential = run_experiment(desc, jobs=1)
        parallel = run_experiment(desc, jobs=2)
        assert sequential.to_json() == parallel.to_json()

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="no fork on this platform"
    )
    def test_at_most_one_worker_per_fold(self, monkeypatch):
        # A fork-context pool forks all of its workers at the first submit.
        sizes = []

        class InlineExecutor(concurrent.futures.Executor):
            def __init__(self, max_workers, mp_context):
                sizes.append(max_workers)

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(dataset, "ProcessPoolExecutor", InlineExecutor)
        desc = small_experiment(seeds=(0,), folds=2)
        assert run_experiment(desc, jobs=16).to_json() == run_experiment(desc, jobs=1).to_json()
        assert sizes == [2]

    def test_record_sink_receives_all_records(self):
        captured = []
        report = run_experiment(small_experiment(seeds=(0,)), record_sink=captured.append)
        assert len(captured) == len(report.records)

    def test_report_json_roundtrip(self):
        report = run_experiment(small_experiment(seeds=(0,)))
        clone = ExperimentReport.from_json(report.to_json())
        assert clone.to_json() == report.to_json()

    def test_csv_columns(self, tmp_path):
        report = run_experiment(small_experiment(seeds=(0,)))
        path = tmp_path / "results.csv"
        report.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "experiment,fold,seed,accuracy,auc"
        assert len(lines) == 1 + len(report.records)

    def test_unlabeled_nodes_never_scored(self):
        features, records = generate_synthetic(
            SyntheticConfig(n_subjects=30, scans_per_subject=(1, 1), n_features=6, seed=3)
        )
        records = [
            dataclasses.replace(r, label=UNKNOWN_LABEL) if i % 5 == 0 else r
            for i, r in enumerate(records)
        ]
        desc = dataclasses.replace(
            small_experiment(seeds=(0,)), features=features, records=records
        )
        report = run_experiment(desc)
        unknown_ids = {i for i, r in enumerate(records) if r.label == UNKNOWN_LABEL}
        for rec_ in report.records:
            assert not (set(rec_.test_indices) & unknown_ids)


class TestReuseFreedMemory:
    def test_no_op_outside_glibc(self, monkeypatch):
        def unknown(name):
            raise ValueError(f"unrecognized configuration name {name!r}")

        def no_libc(*args):
            raise AssertionError("libc opened outside glibc")

        monkeypatch.setattr(dataset.os, "confstr", unknown)
        monkeypatch.setattr(dataset.ctypes, "CDLL", no_libc)
        dataset._reuse_freed_memory()
        report = run_experiment(small_experiment(seeds=(0,), folds=2))
        assert len(report.records) == 2
