import concurrent.futures
import csv
import dataclasses
import json
import multiprocessing
import pickle
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from popgcn import dataset, harness
from popgcn import gcn as gcn_mod
from popgcn.baselines import BaselineConfig
from popgcn.dataset import (
    UNKNOWN_LABEL,
    AcquisitionRecord,
    FeatureMatrix,
    SyntheticConfig,
    generate_synthetic,
    labels_array,
)
from popgcn.errors import ContractError, DivergenceError, IntegrityError, ParameterError
from popgcn.featsel import FeatureSelector, SelectorConfig
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
from popgcn.popgraph import GraphSpec, build_knn_graph, correlation_distance_matrix
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
        folds = stratified_group_kfold(records, k=5, seed=0)
        for f in range(5):
            idx = np.flatnonzero(folds == f)
            assert len(idx) == 2
            assert sorted(records[i].label for i in idx) == [0, 1]

    def test_subject_scans_stay_together(self):
        records = [rec(i, "multi", 1, scans_suffix=f"t{i}") for i in range(4)]
        records += [rec(i, f"s{i}", i % 2) for i in range(10, 30)]
        folds = stratified_group_kfold(records, k=4, seed=1)
        multi_folds = {folds[i] for i in range(4)}
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
        folds = stratified_group_kfold(records, k=k, seed=seed)
        assert len(folds) == len(records)
        assert set(folds.tolist()) <= set(range(k))
        # Partition: each acquisition appears in exactly one fold.
        assert sum(len(np.flatnonzero(folds == f)) for f in range(k)) == len(records)
        # Grouping: all scans of a subject share a fold.
        by_subject = {}
        for i, r in enumerate(records):
            by_subject.setdefault(r.subject_id, set()).add(int(folds[i]))
        assert all(len(v) == 1 for v in by_subject.values())

    def test_subject_level_stratification_within_one(self):
        records = [rec(i, f"s{i}", i % 2) for i in range(40)]
        folds = stratified_group_kfold(records, k=10, seed=3)
        for f in range(10):
            idx = np.flatnonzero(folds == f)
            labels = [records[i].label for i in idx]
            assert labels.count(0) == 2 and labels.count(1) == 2

    def test_deterministic_given_seed(self):
        records = [rec(i, f"s{i}", i % 2) for i in range(20)]
        a = stratified_group_kfold(records, k=4, seed=9)
        b = stratified_group_kfold(records, k=4, seed=9)
        np.testing.assert_array_equal(a, b)

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


def assert_same_error(fold_time_check, build):
    """build raises the ParameterError that fold_time_check raises, word for word."""
    with pytest.raises(ParameterError) as fold_time:
        fold_time_check()
    with pytest.raises(ParameterError) as early:
        build()
    assert str(early.value) == str(fold_time.value)


def no_graph(*args, **kwargs):
    raise AssertionError("this model reads no graph")


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
        for i in np.flatnonzero(assignment == 0):
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
        train_rows = np.flatnonzero((assignment != 0) & (labels != UNKNOWN_LABEL))
        expected = mean_pair_distance(desc.features.values[train_rows])
        base = _run_fold(desc, assignment, 0)
        assert base[0].sigma == pytest.approx(expected, abs=1e-12)

        # Trashing test-node features changes the graph but not sigma.
        noisy = desc.features.values.copy()
        test_rows = np.flatnonzero(assignment == 0)
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

    def test_ridge_experiment_constant_across_seeds_and_builds_no_graph(self, monkeypatch):
        monkeypatch.setattr(harness, "build_graph", no_graph)
        report = run_experiment(small_experiment(model="ridge", seeds=(0, 1, 2)))
        by_fold = {}
        for r in report.records:
            by_fold.setdefault(r.fold, []).append(r)
        for recs in by_fold.values():
            assert len({tuple(r.probs) for r in recs}) == 1

    def test_mlp_experiment_runs_deterministically(self):
        desc = small_experiment(model="mlp", seeds=(0, 1))
        report = run_experiment(desc)
        assert 0.0 <= report.summary["seed_averaged"]["accuracy"] <= 1.0
        assert report.to_json() == run_experiment(desc).to_json()

    @pytest.mark.parametrize("model", ["gcn", "mlp"])
    def test_networks_train_on_single_class_training_rows(self, model):
        # Ridge needs both classes among the training labels; a network
        # trains on whatever labels the training rows carry.
        desc = small_experiment(model=model, seeds=(0,))
        assignment = stratified_group_kfold(desc.records, desc.folds, desc.fold_seed)
        records = [
            r if assignment[i] == 0 else dataclasses.replace(r, label=0)
            for i, r in enumerate(desc.records)
        ]
        [rec_] = _run_fold(dataclasses.replace(desc, records=records), assignment, 0)
        assert set(rec_.true_labels) == {0, 1}
        with pytest.raises(ContractError, match="both classes"):
            _run_fold(dataclasses.replace(desc, model="ridge", records=records), assignment, 0)

    def test_mlp_trains_the_gcn_config_at_order_zero_for_mlp_epochs(self, monkeypatch):
        # Only cheb_order and epochs are set by the baseline, and seed by the
        # loop; every other setting is the network's. No operator is passed.
        desc = small_experiment(model="mlp", seeds=(0, 3))
        desc = dataclasses.replace(
            desc,
            gcn_config=dataclasses.replace(desc.gcn_config, hidden_layers=2, epochs=99),
            baseline_config=BaselineConfig(mlp_epochs=7),
        )
        seen = []
        real_train = gcn_mod.train

        def spy(config, scaled, *args):
            seen.append((config, scaled))
            return real_train(config, scaled, *args)

        monkeypatch.setattr(gcn_mod, "train", spy)
        assignment = stratified_group_kfold(desc.records, desc.folds, desc.fold_seed)
        _run_fold(desc, assignment, 0)
        network = dataclasses.replace(desc.gcn_config, cheb_order=0, epochs=7)
        assert seen == [(dataclasses.replace(network, seed=s), None) for s in (0, 3)]

    @pytest.mark.parametrize("model", ["gcn", "mlp"])
    def test_train_is_given_the_training_rows_and_their_labels_alone(self, monkeypatch, model):
        desc = small_experiment(model=model, seeds=(0, 1))
        seen = []
        real_train = gcn_mod.train

        def spy(config, scaled, x, y_train, rows):
            seen.append((y_train, rows))
            return real_train(config, scaled, x, y_train, rows)

        monkeypatch.setattr(gcn_mod, "train", spy)
        assignment = stratified_group_kfold(desc.records, desc.folds, desc.fold_seed)
        _run_fold(desc, assignment, 0)
        labels = labels_array(desc.records)
        train_rows = np.flatnonzero((assignment != 0) & (labels != UNKNOWN_LABEL))
        assert len(seen) == 2
        for y_train, rows in seen:
            assert len(y_train) == len(rows)
            assert not np.any(assignment[rows] == 0)
            np.testing.assert_array_equal(rows, train_rows)
            np.testing.assert_array_equal(y_train, labels[train_rows])

    @pytest.mark.parametrize("model", ["gcn", "mlp", "ridge"])
    def test_networks_run_in_float32_and_all_before_them_in_float64(self, monkeypatch, model):
        desc = dataclasses.replace(
            small_experiment(model=model, seeds=(0, 1)),
            selector_config=SelectorConfig(kind="pca", target_c=4),
        )
        seen = []

        def record_dtypes(owner, name, dtypes):
            real = getattr(owner, name)

            def spy(*args, **kwargs):
                out = real(*args, **kwargs)
                seen.append((name, *dtypes(args, out)))
                return out

            monkeypatch.setattr(owner, name, spy)

        def operator(scaled):
            return None if scaled is None else scaled.matrix.dtype

        record_dtypes(FeatureSelector, "fit", lambda a, out: (a[1].dtype,))
        record_dtypes(FeatureSelector, "transform", lambda a, out: (a[1].dtype, out.dtype))
        record_dtypes(harness, "build_graph", lambda a, out: (a[0].values.dtype,))
        record_dtypes(harness, "ridge_classify", lambda a, out: (a[0].dtype, a[2].dtype))
        record_dtypes(
            gcn_mod, "train", lambda a, out: (a[2].dtype, operator(a[1]), out[0].flat.dtype)
        )
        record_dtypes(gcn_mod, "predict", lambda a, out: (a[2].dtype, operator(a[1]), out[0].dtype))
        assignment = stratified_group_kfold(desc.records, desc.folds, desc.fold_seed)
        _run_fold(desc, assignment, 0)
        f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
        expected = [("fit", f64), ("transform", f64, f64)]
        if model == "ridge":
            expected.append(("ridge_classify", f64, f64))
        else:
            scaled = f32 if model == "gcn" else None
            if model == "gcn":
                expected.append(("build_graph", f64))
            expected += [("train", f32, scaled, f32), ("predict", f32, scaled, f64)] * 2
        assert seen == expected

    @pytest.mark.parametrize("model", ["gcn", "mlp"])
    def test_features_beyond_float32_range_rejected_before_any_seed_trains(
        self, monkeypatch, model
    ):
        desc = small_experiment(model=model)
        values = desc.features.values.copy()
        values[20, 0] = 1e39
        values[7, 3] = -1e39  # finite in float64, -inf in float32
        tampered = dataclasses.replace(
            desc, features=FeatureMatrix(ids=list(desc.features.ids), values=values)
        )

        def no_training(*args):
            raise AssertionError("a seed trained")

        monkeypatch.setattr(gcn_mod, "train", no_training)
        message = r"^feature value -1e\+39 at row 7, column 3 is outside the float32 range"
        with pytest.raises(IntegrityError, match=message):
            run_experiment(tampered)

    @pytest.mark.parametrize("model", ["gcn", "mlp"])
    def test_features_within_float32_range_run(self, model):
        # 1e38 passes the range guard, but its gradients square past
        # float32's ceiling in Adam's second moment and would freeze the
        # weights they reach; the run stops rather than finish so.
        desc = small_experiment(model=model)
        values = desc.features.values.copy()
        values[7, 3] = 1e38
        tampered = dataclasses.replace(
            desc, features=FeatureMatrix(ids=list(desc.features.ids), values=values)
        )
        with np.errstate(over="ignore"), pytest.raises(
            DivergenceError, match="^non-finite Adam moment after"
        ):
            run_experiment(tampered)

    def test_order_zero_gcn_builds_no_graph_and_equals_the_mlp(self, monkeypatch):
        monkeypatch.setattr(harness, "build_graph", no_graph)
        monkeypatch.setattr(gcn_mod, "scaled_operator", no_graph)
        mlp = small_experiment(model="mlp", seeds=(0, 3))
        gcn = dataclasses.replace(
            mlp, model="gcn",
            gcn_config=dataclasses.replace(mlp.gcn_config, cheb_order=0),
        )
        assert gcn.gcn_config.epochs == mlp.baseline_config.mlp_epochs
        records = run_experiment(gcn).records
        assert all(r.sigma is None for r in records)
        assert records == run_experiment(mlp).records

    def test_mlp_scores_only_the_test_rows_with_probability_rows_summing_to_one(
        self, monkeypatch
    ):
        scored = []
        real_predict = gcn_mod.predict

        def spy(model, scaled, x, rows):
            probs, preds = real_predict(model, scaled, x, rows)
            scored.append(probs)
            return probs, preds

        monkeypatch.setattr(gcn_mod, "predict", spy)
        desc = small_experiment(model="mlp", seeds=(0, 1))
        assignment = stratified_group_kfold(desc.records, desc.folds, desc.fold_seed)
        records = _run_fold(desc, assignment, 0)
        assert len(scored) == 2
        for rec_, probs in zip(records, scored):
            assert probs.shape == (len(rec_.test_indices), 2)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
            assert rec_.probs == probs[:, 1].tolist()

    def test_mlp_test_rows_do_not_affect_training(self, rng):
        # Feature-only baseline: trashing some test rows must not change the
        # fitted network, so the other test rows keep their outputs.
        desc = small_experiment(model="mlp", seeds=(0, 2))
        assignment = stratified_group_kfold(desc.records, desc.folds, desc.fold_seed)
        test_rows = np.flatnonzero(assignment == 0)
        half = len(test_rows) // 2
        values = desc.features.values.copy()
        values[test_rows[:half]] = rng.standard_normal((half, values.shape[1])) * 50
        tampered = dataclasses.replace(
            desc, features=FeatureMatrix(ids=list(desc.features.ids), values=values)
        )
        for a, b in zip(_run_fold(desc, assignment, 0), _run_fold(tampered, assignment, 0)):
            assert a.test_indices == b.test_indices == test_rows.tolist()
            assert a.probs[half:] == b.probs[half:]
            assert a.probs[:half] != b.probs[:half]

    def test_repeated_seeds_rejected(self):
        with pytest.raises(ParameterError, match=r"repeated: \[0\]"):
            small_experiment(seeds=(0, 2, 0))

    def test_settings_checked_without_data_and_data_aligned_once_given(self):
        desc = small_experiment()
        settings = dataclasses.replace(desc, features=None, records=None)
        assert dataclasses.replace(settings, features=desc.features, records=desc.records) == desc
        for data in ({"records": None}, {"records": desc.records[::-1]}):
            with pytest.raises(ContractError, match="aligned"):
                dataclasses.replace(desc, **data)

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
            ("graph_spec", {"measures": ()}),
            ("gcn_config", {"dropout_rate": 1.5}),
            ("baseline_config", {"ridge_alpha": 0.0}),
            ("selector_config", {"kind": "rfe", "target_c": 0}),
            ("graph_spec", {"sigma": 0.0}),
            ("graph_spec", {"theta": float("nan")}),
            ("graph_spec", {"sigma": float("nan")}),
            ("graph_spec", {"sim_mode": "longitudinal", "lam": float("nan")}),
            ("gcn_config", {"l2_coeff": float("nan")}),
            ("gcn_config", {"learning_rate": float("nan")}),
            ("baseline_config", {"ridge_alpha": float("nan")}),
            ("selector_config", {"ridge_alpha": float("nan")}),
            ("selector_config", {"rfe_step_fraction": 2.0}),
            ("selector_config", {"rfe_step_fraction": float("nan")}),
            ("selector_config", {"mlp_epochs": -1}),
            ("selector_config", {"ae_epochs": -5}),
            ("selector_config", {"mlp_lr": float("nan")}),
            ("selector_config", {"ae_lr": -1.0}),
            ("graph_spec", {"sim_mode": "longitudinal", "lam": float("inf")}),
            ("gcn_config", {"l2_coeff": float("inf")}),
            ("gcn_config", {"learning_rate": float("inf")}),
            ("baseline_config", {"ridge_alpha": float("inf")}),
            ("selector_config", {"ridge_alpha": float("inf")}),
            ("selector_config", {"mlp_lr": float("inf")}),
            ("selector_config", {"ae_lr": float("inf")}),
        ],
    )
    def test_sub_configs_validated_before_any_fold(self, field, value):
        # Even a ridge run's graph and GCN settings: each config is checked
        # when made, so no descriptor can hold an invalid one.
        desc = small_experiment(model="ridge")
        with pytest.raises(ParameterError):
            dataclasses.replace(getattr(desc, field), **value)

    @pytest.mark.parametrize(
        "changes, rejected",
        [
            ({}, True),
            ({"graph_spec": GraphSpec(strategy="knn")}, True),
            ({"graph_spec": GraphSpec(strategy="all")}, True),
            ({"graph_spec": GraphSpec(strategy="random")}, True),
            ({"selector_config": SelectorConfig(kind="rfe", target_c=1)}, True),
            ({"graph_spec": GraphSpec(sim_mode="none")}, False),
            ({"graph_spec": GraphSpec(sim_mode="longitudinal")}, False),
            ({"graph_spec": GraphSpec(strategy="complete")}, False),
            ({"gcn_config": GcnConfig(cheb_order=0)}, False),
            ({"model": "mlp"}, False),
            ({"model": "ridge"}, False),
            ({"selector_config": SelectorConfig(kind="pca", target_c=2)}, False),
        ],
    )
    def test_one_feature_rejected_only_under_a_kernel_graph(self, changes, rejected):
        # The correlation kernel needs 2 features per node, so a 1-column
        # selector is rejected before any data are read where it builds one.
        settings = {"selector_config": SelectorConfig(kind="pca", target_c=1), **changes}
        if rejected:
            with pytest.raises(ParameterError, match="correlation-kernel graph, got 1$"):
                ExperimentDescriptor(None, None, **settings)
        else:
            ExperimentDescriptor(None, None, **settings)

    @pytest.mark.parametrize(
        "changes, rejected",
        [
            ({}, True),
            ({"graph_spec": GraphSpec(strategy="knn")}, True),
            ({"graph_spec": GraphSpec(strategy="all")}, True),
            ({"graph_spec": GraphSpec(strategy="random")}, True),
            ({"graph_spec": GraphSpec(sim_mode="none")}, False),
            ({"graph_spec": GraphSpec(sim_mode="longitudinal")}, False),
            ({"graph_spec": GraphSpec(strategy="complete")}, False),
            ({"gcn_config": GcnConfig(cheb_order=0)}, False),
            ({"model": "ridge"}, False),
            ({"selector_config": SelectorConfig(kind="mlp", target_c=2)}, False),
        ],
    )
    def test_one_column_data_rejected_only_under_an_unselected_kernel_graph(
        self, changes, rejected
    ):
        # With no selector the kernel reads the data's own columns, which
        # only the data can tell; a fitted selector's width is its target_c.
        features, records = generate_synthetic(SyntheticConfig(n_subjects=12, n_features=1))
        ExperimentDescriptor(None, None, **changes)
        message = "^n_features must be >= 2 for a correlation-kernel graph, got 1$"
        if rejected:
            with pytest.raises(ParameterError, match=message):
                ExperimentDescriptor(features, records, **changes)
        else:
            ExperimentDescriptor(features, records, **changes)

    @pytest.mark.parametrize(
        "changes, applies",
        [
            ({"graph_spec": GraphSpec(strategy="knn")}, True),
            ({"graph_spec": GraphSpec(strategy="phenotypic")}, False),
            ({"graph_spec": GraphSpec(strategy="knn"), "model": "mlp"}, False),
            ({"graph_spec": GraphSpec(strategy="knn"), "model": "ridge"}, False),
            ({"graph_spec": GraphSpec(strategy="knn"), "gcn_config": GcnConfig(cheb_order=0)}, False),
        ],
    )
    def test_knn_k_checked_against_the_data_only_where_a_knn_graph_is_built(
        self, changes, applies
    ):
        desc = dataclasses.replace(small_experiment(), **changes)
        n = len(desc.records)
        spec = desc.graph_spec
        dataclasses.replace(desc, graph_spec=dataclasses.replace(spec, k=n - 1))
        build = partial(dataclasses.replace, desc, graph_spec=dataclasses.replace(spec, k=n))
        if applies:
            assert_same_error(partial(build_knn_graph, desc.features, n), build)
        else:
            build()

    @pytest.mark.parametrize(
        "kind, applies", [("rfe", True), ("pca", True), ("mlp", False), ("autoencoder", False)]
    )
    def test_target_c_checked_against_the_columns_only_for_rfe_and_pca(self, kind, applies):
        desc = small_experiment()
        c = desc.features.n_features
        dataclasses.replace(desc, selector_config=SelectorConfig(kind=kind, target_c=c))
        wide = SelectorConfig(kind=kind, target_c=c + 1, mlp_epochs=1, ae_epochs=1)
        build = partial(dataclasses.replace, desc, selector_config=wide)
        if applies:
            fit = partial(
                FeatureSelector(wide).fit, desc.features.values, labels_array(desc.records)
            )
            assert_same_error(fit, build)
        else:
            build()

    @pytest.mark.parametrize("kind, applies", [("pca", True), ("rfe", False)])
    def test_pca_target_c_checked_against_the_smallest_folds_training_rows(self, kind, applies):
        # 30 one-scan subjects and 40 columns: every fold trains on fewer
        # rows than there are columns, which bounds PCA alone.
        features, records = generate_synthetic(
            SyntheticConfig(n_subjects=30, scans_per_subject=(1, 1), n_features=40, seed=2)
        )
        desc = small_experiment()
        desc = dataclasses.replace(desc, features=features, records=records, fold_seed=3)
        folds = stratified_group_kfold(records, desc.folds, desc.fold_seed)
        labeled = labels_array(records) != UNKNOWN_LABEL
        train = [np.flatnonzero(labeled & (folds != f)) for f in range(desc.folds)]
        smallest = min(train, key=len)
        assert len(smallest) < features.n_features
        fits = SelectorConfig(kind=kind, target_c=len(smallest))
        dataclasses.replace(desc, selector_config=fits)
        wide = SelectorConfig(kind=kind, target_c=len(smallest) + 1)
        build = partial(dataclasses.replace, desc, selector_config=wide)
        if applies:
            fit = partial(
                FeatureSelector(wide).fit, features.values, labels_array(records)[smallest],
                rows=smallest,
            )
            assert_same_error(fit, build)
        else:
            build()

    def test_folds_checked_against_the_subjects_once_the_data_are_given(self):
        desc = small_experiment()
        n_subjects = len({r.subject_id for r in desc.records})
        dataclasses.replace(desc, folds=n_subjects)
        settings = dataclasses.replace(desc, features=None, records=None, folds=n_subjects + 1)
        assert_same_error(
            partial(stratified_group_kfold, desc.records, n_subjects + 1),
            partial(dataclasses.replace, settings, features=desc.features, records=desc.records),
        )

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
            def __init__(self, max_workers, mp_context, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)  # as each forked process would

            def shutdown(self, wait=True, cancel_futures=False):
                dataset._inherit()

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(dataset, "ProcessPoolExecutor", InlineExecutor)
        desc = small_experiment(seeds=(0,), folds=2)
        assert run_experiment(desc, jobs=16).to_json() == run_experiment(desc, jobs=1).to_json()
        assert sizes == [2]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="no fork on this platform"
    )
    def test_fold_task_size_does_not_grow_with_the_features(self, monkeypatch):
        # A task carries its fold index; the forked processes inherit the
        # descriptor, feature matrix included, and the fold assignment.
        sizes = []

        class SizedExecutor(concurrent.futures.ProcessPoolExecutor):
            def submit(self, fn, *args):
                sizes.append(len(pickle.dumps((fn, args))))
                return super().submit(fn, *args)

        monkeypatch.setattr(dataset, "ProcessPoolExecutor", SizedExecutor)
        for n_features in (8, 800):
            features, records = generate_synthetic(
                SyntheticConfig(n_subjects=36, scans_per_subject=(1, 2), n_features=n_features)
            )
            desc = dataclasses.replace(
                small_experiment(seeds=(0,), folds=2), features=features, records=records
            )
            assert run_experiment(desc, jobs=2).to_json() == run_experiment(desc, jobs=1).to_json()
        assert len(sizes) == 4
        assert sizes[:2] == sizes[2:]
        assert max(sizes) < 1024

    def test_record_sink_receives_all_records(self):
        captured = []
        report = run_experiment(small_experiment(seeds=(0,)), record_sink=captured.append)
        assert len(captured) == len(report.records)

    def test_report_json_roundtrip(self):
        report = run_experiment(small_experiment(seeds=(0,)))
        clone = ExperimentReport.from_json(report.to_json())
        assert clone.to_json() == report.to_json()

    def test_csv_columns(self, tmp_path):
        # A name holding ',' and '"' is quoted, so it reads back as one cell.
        report = run_experiment(dataclasses.replace(small_experiment(seeds=(0,)), name='a,"b'))
        path = tmp_path / "results.csv"
        report.write_csv(path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["experiment", "fold", "seed", "accuracy", "auc"]
        assert [row[0] for row in rows[1:]] == ['a,"b'] * len(report.records)
        assert {len(row) for row in rows} == {5}

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
