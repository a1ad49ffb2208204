"""Feature-only reference classifiers: closed-form ridge and an MLP.

The MLP is the graph model with the mixing operator removed: order-0
convolutions and no Laplacian, i.e. plain dense layers, trained and scored by
`gcn.train` and `gcn.predict` (masked loss over the training rows, Adam,
dropout).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParameterError
from .featsel import _sigmoid, ridge_fit
from .gcn import GcnConfig, predict, train


@dataclass(frozen=True)
class BaselineConfig:
    kind: str = "ridge"
    ridge_alpha: float = 1.0
    # MLP defaults mirror the graph model's (one hidden layer, dropout 0.3,
    # l2 5e-4, lr 0.005) with the epoch count fixed at 200; width None means
    # "input feature count".
    mlp_epochs: int = 200
    mlp_hidden_layers: int = 1
    mlp_width: int | None = None
    mlp_dropout: float = 0.3
    mlp_l2: float = 5e-4
    mlp_lr: float = 0.005
    seed: int = 0

    def validate(self):
        if self.kind not in ("ridge", "mlp"):
            raise ParameterError(f"unknown baseline kind {self.kind!r}")
        if self.ridge_alpha <= 0:
            raise ParameterError("ridge_alpha must be > 0")
        if self.kind == "mlp":
            if self.mlp_epochs < 0 or self.mlp_hidden_layers < 0:
                raise ParameterError("mlp_epochs and mlp_hidden_layers must be >= 0")
            if not 0 <= self.mlp_dropout < 1:
                raise ParameterError("mlp_dropout must be in [0, 1)")
            if self.mlp_l2 < 0 or self.mlp_lr <= 0:
                raise ParameterError("mlp_l2 must be >= 0 and mlp_lr > 0")


def ridge_classify(x_train, y_train, x_test, alpha: float = 1.0):
    """Ridge decision scores squashed to probabilities.

    Labels are {0, 1}; internally the fit uses +/-1 targets. The score for a
    test row is (row - train mean) . w + train label mean, thresholded at 0
    (exact ties -> class 0); the logistic squash keeps score order, so AUC is
    unchanged and prob > 0.5 agrees with score > 0.

    Returns (labels, probs).
    """
    x_train = np.asarray(x_train, dtype=np.float64)
    x_test = np.asarray(x_test, dtype=np.float64)
    y = np.asarray(y_train, dtype=np.int64)
    if not set(np.unique(y)) == {0, 1}:
        raise ContractError("both classes must be present in training labels")
    y_signed = 2.0 * y - 1.0
    w = ridge_fit(x_train, y_signed, alpha)
    scores = (x_test - x_train.mean(axis=0)) @ w + y_signed.mean()
    labels = (scores > 0.0).astype(np.int64)
    return labels, _sigmoid(scores)


def mlp_classify(x_train, y_train, x_test, config: BaselineConfig):
    """Multilayer perceptron classifier; returns (labels, probs for class 1..).

    Trains the graph model with Chebyshev order 0 and no operator (identical
    to its forward pass on an edgeless graph), so dropout, loss, gradients
    and Adam are shared code; a non-finite loss raises train's
    DivergenceError. Probabilities are softmax rows.
    """
    config.validate()
    if config.kind != "mlp":
        raise ContractError("config.kind must be 'mlp'")
    x_train = np.asarray(x_train, dtype=np.float64)
    x_test = np.asarray(x_test, dtype=np.float64)
    y = np.asarray(y_train, dtype=np.int64)
    if not set(np.unique(y)) == {0, 1}:
        raise ContractError("both classes must be present in training labels")

    # Test rows ride along unmasked: dropout draws its masks over every row,
    # so leaving them out would change the random stream and the results.
    x_full = np.vstack([x_train, x_test])
    n_train = x_train.shape[0]
    mask = np.zeros(x_full.shape[0], dtype=bool)
    mask[:n_train] = True
    labels_full = np.zeros(x_full.shape[0], dtype=np.int64)
    labels_full[:n_train] = y

    net_config = GcnConfig(
        n_classes=2,
        hidden_layers=config.mlp_hidden_layers,
        hidden_width=config.mlp_width,
        cheb_order=0,  # dense layers: no neighborhood mixing
        dropout_rate=config.mlp_dropout,
        l2_coeff=config.mlp_l2,
        learning_rate=config.mlp_lr,
        epochs=config.mlp_epochs,
        seed=config.seed,
    )
    model, _ = train(net_config, None, x_full, labels_full, mask)
    probs, labels = predict(model, None, x_full)
    return labels[n_train:], probs[n_train:]
