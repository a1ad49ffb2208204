import dataclasses

import numpy as np
import pytest

from popgcn.baselines import BaselineConfig, ridge_classify
from popgcn.dataset import SyntheticConfig, generate_synthetic, labels_array
from popgcn.errors import ContractError, ParameterError


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

