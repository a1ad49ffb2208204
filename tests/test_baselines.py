import dataclasses

import numpy as np
import pytest

from popgcn import baselines
from popgcn.baselines import BaselineConfig, mlp_classify, ridge_classify
from popgcn.dataset import SyntheticConfig, generate_synthetic, labels_array
from popgcn.errors import ContractError, ParameterError
from popgcn.gcn import GcnConfig, forward, init_model, scaled_operator
from popgcn.popgraph import PopulationGraph


@pytest.mark.parametrize(
    "config, message",
    [
        ({"ridge_alpha": 0.0}, "ridge_alpha must be > 0"),
        ({"ridge_alpha": -1.0}, "ridge_alpha must be > 0"),
        ({"mlp_epochs": -1}, "mlp_epochs must be >= 0"),
        ({"ridge_alpha": float("nan")}, "ridge_alpha must be > 0, got nan"),
        ({"ridge_alpha": float("inf")}, "ridge_alpha must be finite, got inf"),
    ],
)
def test_baseline_config_validate(config, message):
    # Checked when constructed, and again by replace.
    valid = BaselineConfig(ridge_alpha=1e-9, mlp_epochs=0)
    with pytest.raises(ParameterError, match=message):
        BaselineConfig(**config)
    with pytest.raises(ParameterError, match=message):
        dataclasses.replace(valid, **config)


def separable(n=100, c=8, seed=0, margin=2.0):
    rng = np.random.default_rng(seed)
    y = np.array([i % 2 for i in range(n)])
    direction = rng.standard_normal(c)
    direction /= np.linalg.norm(direction)
    x = rng.standard_normal((n, c)) * 0.4 + np.outer(2 * y - 1, direction) * margin
    return x, y


class TestRidgeClassify:
    def test_train_equals_test_interpolation(self):
        x, y = separable(n=40)
        preds, probs = ridge_classify(x, y, x, alpha=1e-8)
        assert np.mean(preds == y) == 1.0
        assert np.all((probs > 0.5) == (y == 1))

    def test_constant_features_fall_back_to_majority(self):
        # Class 0 is the training majority; all test scores tie and the
        # deterministic tie rule sends them to class 0.
        x_train = np.ones((10, 3))
        y_train = np.array([0, 0, 0, 0, 0, 0, 1, 1, 1, 1])
        x_test = np.ones((6, 3))
        y_test = np.array([0, 0, 0, 0, 1, 1])
        preds, probs = ridge_classify(x_train, y_train, x_test)
        assert len(set(probs.tolist())) == 1  # all scores equal
        majority_rate = np.mean(y_test == 0)
        assert np.mean(preds == y_test) == majority_rate

    def test_chance_dataset(self):
        cfg = SyntheticConfig(
            n_subjects=240,
            scans_per_subject=(1, 1),
            class_separation=0.0,
            site_shift_scale=0.0,
            seed=17,
        )
        features, records = generate_synthetic(cfg)
        y = labels_array(records)
        half = len(y) // 2
        preds, _ = ridge_classify(features.values[:half], y[:half], features.values[half:])
        assert abs(np.mean(preds == y[half:]) - 0.5) <= 0.1

    def test_probabilities_in_unit_interval(self):
        x, y = separable(n=30)
        _, probs = ridge_classify(x[:20], y[:20], x[20:])
        assert np.all((probs >= 0) & (probs <= 1))

    def test_requires_both_classes(self):
        with pytest.raises(ContractError):
            ridge_classify(np.eye(3), np.zeros(3, dtype=int), np.eye(3))


class TestMlpClassify:
    def test_forward_identity_on_edgeless_graph_with_order_zero(self, rng):
        # Dense layers == graph convolution of order 0 on a graph with no
        # edges: the mixing operator is never applied.
        n, c = 12, 5
        x = rng.standard_normal((n, c))
        config = GcnConfig(cheb_order=0, hidden_width=4, dropout_rate=0.0)
        model = init_model(config, c, np.random.default_rng(3))
        edgeless = PopulationGraph.from_edges(n, [], [], [])
        with_operator = forward(model, scaled_operator(edgeless), x)
        without_operator = forward(model, None, x)
        np.testing.assert_array_equal(with_operator, without_operator)

    def test_probability_rows_sum_to_one(self):
        x, y = separable(n=60)
        cfg = BaselineConfig(mlp_epochs=30)
        _, probs = mlp_classify(x[:40], y[:40], x[40:], cfg, GcnConfig(hidden_width=6))
        assert probs.shape == (20, 2)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_separable_accuracy(self):
        x, y = separable(n=120, seed=5)
        cfg = BaselineConfig(mlp_epochs=150)
        network = GcnConfig(hidden_width=8, dropout_rate=0.1)
        preds, _ = mlp_classify(x[:80], y[:80], x[80:], cfg, network)
        assert np.mean(preds == y[80:]) >= 0.9

    def test_deterministic_given_seed(self):
        x, y = separable(n=50)
        cfg, network = BaselineConfig(mlp_epochs=20), GcnConfig(seed=11)
        a = mlp_classify(x[:30], y[:30], x[30:], cfg, network)
        b = mlp_classify(x[:30], y[:30], x[30:], cfg, network)
        np.testing.assert_array_equal(a[1], b[1])

    def test_test_rows_do_not_affect_training(self, rng):
        # Feature-only baseline: trashing the test rows must not change the
        # fitted network, only its outputs on those rows.
        x, y = separable(n=50)
        cfg, network = BaselineConfig(mlp_epochs=25), GcnConfig(dropout_rate=0.0, seed=2)
        probs_a = mlp_classify(x[:30], y[:30], x[30:], cfg, network)[1]
        x_other = np.vstack([x[30:40], rng.standard_normal((10, x.shape[1]))])
        probs_b = mlp_classify(x[:30], y[:30], x_other, cfg, network)[1]
        np.testing.assert_array_equal(probs_a[:10], probs_b[:10])

    def test_network_config_validated(self):
        # An invalid network never reaches the baseline: making it raises.
        with pytest.raises(ParameterError, match="hidden_width must be >= 1"):
            GcnConfig(hidden_width=0)

    def test_requires_both_classes(self):
        y = np.zeros(3, dtype=int)
        with pytest.raises(ContractError):
            mlp_classify(np.eye(3), y, np.eye(3), BaselineConfig(), GcnConfig())

    def test_trains_the_network_at_order_zero_for_mlp_epochs(self, monkeypatch):
        # Only cheb_order and epochs are set by the baseline; every
        # other setting is the network's.
        seen = []
        real_train = baselines.train

        def spy(config, *args, **kwargs):
            seen.append(config)
            return real_train(config, *args, **kwargs)

        monkeypatch.setattr(baselines, "train", spy)
        x, y = separable(n=20)
        network = GcnConfig(hidden_layers=2, hidden_width=3, cheb_order=3, epochs=99, seed=4)
        mlp_classify(x[:10], y[:10], x[10:], BaselineConfig(mlp_epochs=7), network)
        assert seen == [dataclasses.replace(network, cheb_order=0, epochs=7)]
