"""Feature-only reference classifiers: closed-form ridge, and the settings
of the MLP.

The MLP baseline has no code of its own: it is the experiment's GcnConfig at
cheb_order 0, whose convolutions reach no neighbour, trained and scored by
the harness's one network loop with no graph built. BaselineConfig holds
only what the baselines add to the GcnConfig, the ridge penalty and the
MLP's epoch count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, check_above, check_at_least
from .featsel import _sigmoid, ridge_fit


@dataclass(frozen=True)
class BaselineConfig:
    """The baselines' own settings: the ridge penalty and the MLP's epoch
    count. The MLP takes every other setting from the experiment's GcnConfig.
    Checked when constructed (and by replace) by the errors checks, NaN
    failing."""

    ridge_alpha: float = 1.0
    mlp_epochs: int = 200

    def __post_init__(self):
        check_above("ridge_alpha", self.ridge_alpha, 0, finite=True)
        check_at_least("mlp_epochs", self.mlp_epochs, 0)


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

